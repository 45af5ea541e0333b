"""Instance file format: exact costs, round-trips, and parse errors."""

import json
from fractions import Fraction

import pytest

from scencover.core import enumerate_partials
from scencover.serialize import (
    ParseError,
    dumps_document,
    emit_document,
    format_cost,
    loads_instance,
    parse_cost,
    tree_to_document,
)
from conftest import instance_stream


def test_parse_cost_forms():
    assert parse_cost("2.5") == Fraction(5, 2)
    assert parse_cost("3/2") == Fraction(3, 2)
    assert parse_cost("2") == 2
    for bad in ("0", "-1", "abc", "1/0", 3):
        with pytest.raises(ParseError):
            parse_cost(bad)


def test_format_cost_round_trips():
    for c in (Fraction(5, 2), Fraction(2), Fraction(7, 3)):
        assert parse_cost(format_cost(c)) == c


def test_document_round_trip():
    for _, inst, desc in instance_stream(20, base_seed=800, max_n=4, max_rows=5):
        text = dumps_document(emit_document(inst, desc))
        parsed, desc2 = loads_instance(text)
        assert desc2 == desc
        assert parsed.sample == inst.sample
        assert tuple(parsed.costs) == tuple(inst.costs)
        assert parsed.alphabet == inst.alphabet
        for b in enumerate_partials(inst.alphabet, inst.n):
            assert parsed.utility.value(b) == inst.utility.value(b)
        # byte-identical second emission
        assert dumps_document(emit_document(parsed, desc2)) == text


def _base_doc():
    return {
        "version": 1,
        "n": 2,
        "states": ["0", "1"],
        "sample": [{"assignment": ["1", "1"], "weight": 1}],
        "costs": ["1", "1"],
        "utility": {"kind": "k_of_n", "k": 1},
    }


def test_parse_errors_name_the_problem():
    doc = _base_doc()
    doc["sample"] = [
        {"assignment": ["1", "1"], "weight": 1},
        {"assignment": ["1", "zebra"], "weight": 1},
    ]
    with pytest.raises(ParseError, match="sample row 2"):
        loads_instance(json.dumps(doc))


def test_parse_rejects_bad_version_and_kind():
    doc = _base_doc()
    doc["version"] = 9
    with pytest.raises(ParseError, match="version"):
        loads_instance(json.dumps(doc))
    doc = _base_doc()
    doc["utility"] = {"kind": "mystery"}
    with pytest.raises(ParseError, match="kind"):
        loads_instance(json.dumps(doc))


def _one_item_doc(utility):
    """A valid 1-item document in which each integer field under test
    holds 1, the value `true` would compare equal to."""
    return {
        "version": 1,
        "n": 1,
        "states": ["0", "1"],
        "sample": [{"assignment": ["1"], "weight": 1}],
        "costs": ["1"],
        "utility": utility,
    }


K_OF_N = {"kind": "k_of_n", "k": 1}
COVERAGE = {"kind": "coverage", "universe_size": 1,
            "covers": {"1": {"0": [0], "1": [0]}}}
WIDE_COVERAGE = {"kind": "coverage", "universe_size": 2,
                 "covers": {"1": {"0": [0, 1], "1": [0, 1]}}}
TABLE = {"kind": "table", "goal": 1, "values": {"*": 0, "0": 1, "1": 1}}


@pytest.mark.parametrize("utility, path", [
    (K_OF_N, ("version",)),
    (K_OF_N, ("n",)),
    (K_OF_N, ("sample", 0, "weight")),
    (K_OF_N, ("utility", "k")),
    (COVERAGE, ("utility", "universe_size")),
    (WIDE_COVERAGE, ("utility", "covers", "1", "1", 1)),
    (TABLE, ("utility", "goal")),
    (TABLE, ("utility", "values", "1")),
], ids=["version", "n", "weight", "k", "universe_size", "covered_element",
        "table_goal", "table_value"])
def test_parse_rejects_booleans_for_integers(utility, path):
    doc = _one_item_doc(json.loads(json.dumps(utility)))
    loads_instance(json.dumps(doc))  # the field holds 1: the document loads
    field = doc
    for key in path[:-1]:
        field = field[key]
    assert field[path[-1]] == 1
    field[path[-1]] = True
    with pytest.raises(ParseError):
        loads_instance(json.dumps(doc))


def test_parse_rejects_invalid_json_with_location():
    with pytest.raises(ParseError, match="line"):
        loads_instance("{not json")


def test_table_kind():
    doc = _base_doc()
    values = {}
    for b in enumerate_partials_strs():
        ones = sum(1 for s in b if s == "1")
        values[",".join(b)] = min(1, ones)
    doc["utility"] = {"kind": "table", "goal": 1, "values": values}
    inst, _ = loads_instance(json.dumps(doc))
    assert inst.utility.value(("1", "*")) == 1
    assert inst.utility.value(("*", "*")) == 0


@pytest.mark.parametrize("covers, message", [
    ({"1": [0]}, "must be an object"),
    ({"1": {"0": 5}}, "must be a list"),
], ids=["item_not_object", "elements_not_list"])
def test_parse_rejects_malformed_covers(covers, message):
    doc = _base_doc()
    doc["utility"] = {"kind": "coverage", "universe_size": 1, "covers": covers}
    with pytest.raises(ParseError, match=message):
        loads_instance(json.dumps(doc))


def _base_with(**fields):
    doc = _base_doc()
    doc.update(fields)
    return doc


def _coverage(covers):
    return {"kind": "coverage", "universe_size": 1, "covers": covers}


ROW = {"assignment": ["1", "1"], "weight": 1}


@pytest.mark.parametrize("doc, message", [
    (_base_with(utility={"k": 1}), "with a 'kind'"),
    (_base_with(states=["0", "1", "2"]), 'k_of_n requires states'),
    (_base_with(utility={"kind": "coverage", "universe_size": 1}),
     "needs a covers map"),
    (_base_with(utility=_coverage({"x": {"0": [0]}})), "bad item key 'x'"),
    (_base_with(utility=_coverage({"3": {"0": [0]}})), "out of range 1..2"),
    (_base_with(utility=_coverage({"1": {"2": [0]}})), "undeclared state '2'"),
    (_base_with(utility={"kind": "table", "goal": 1}), "needs a values map"),
    (_base_with(utility={"kind": "table", "goal": 1, "values": {"1": 1}}),
     "bad table key '1'"),
    ([ROW], "must be a JSON object"),
    (_base_with(states=["0"]), "at least two strings"),
    (_base_with(states=["0", "0"]), "distinct"),
    (_base_with(sample=[]), "non-empty list"),
    (_base_with(sample=[["1", "1"]]), "sample row 1 must be an object"),
    (_base_with(sample=[ROW, ROW]), "duplicate sample row"),
    (_base_with(costs=["1"]), "exactly n entries"),
    (_base_with(utility={"kind": "table", "goal": 1, "values": {
        a + "," + b: 0 for a in "01*" for b in "01*"}}),
     "does not reach its goal"),
    (_base_with(utility=_coverage({})),
     "element 0 is uncovered under some realization"),
], ids=["no_kind", "k_of_n_three_states", "no_covers", "bad_item_key",
        "item_out_of_range", "undeclared_cover_state", "no_table_values",
        "bad_table_key", "not_an_object", "one_state", "duplicate_states",
        "empty_sample", "row_not_object", "duplicate_rows", "costs_length",
        "goal_missed_on_row", "uncovered_element"])
def test_parse_errors_name_the_fault(doc, message):
    with pytest.raises(ParseError, match=message):
        loads_instance(json.dumps(doc))


def test_parse_rejects_table_missing_partials():
    doc = _base_doc()
    doc["utility"] = {"kind": "table", "goal": 2, "values": {"0,1": 2}}
    with pytest.raises(ParseError, match="lists 1 of the 9 partial"):
        loads_instance(json.dumps(doc))


def test_table_missing_its_goal_loads():
    # a counterexample table need not reach its goal on every full
    # realization, only on the sample's: `check --property goal` reports it
    doc = _base_doc()
    values = {",".join(b): 0 for b in enumerate_partials_strs()}
    values["1,1"] = 1  # the sample row
    doc["utility"] = {"kind": "table", "goal": 1, "values": values}
    inst, _ = loads_instance(json.dumps(doc))
    assert not inst.utility.verify_goal_on_full()


def enumerate_partials_strs():
    import itertools

    return itertools.product(("0", "1", "*"), repeat=2)


def test_tree_document_is_one_based():
    from scencover.core import Leaf, Node

    tree = Node(0, {"0": Leaf(), "1": Node(1, {"0": Leaf(), "1": Leaf()})})
    doc = tree_to_document(tree)
    assert doc["item"] == 1
    assert doc["children"]["1"]["item"] == 2
    assert doc["children"]["0"] == {"leaf": True}
