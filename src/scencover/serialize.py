"""Instance file format: a JSON document with exact rational costs,
integer-weighted sample rows, and a tagged utility descriptor.

Items are 1-based in files and 0-based in code.  Integer fields reject JSON
booleans (`type(x) is int`).  Emission is deterministic (sorted keys, fixed
indentation) so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import (
    CostVector,
    ScencoverError,
    ScenarioInstance,
    StateAlphabet,
    WeightedSample,
    Leaf,
)
from .utility import (
    BINARY,
    CoverageUtility,
    KOfNUtility,
    OrUtility,
    TableUtility,
    scenario_count_utility,
    scenario_weight_utility,
)

FORMAT_VERSION = 1


class ParseError(ScencoverError):
    """The document is not a valid instance file."""


def parse_cost(text) -> Fraction:
    """Exact rational from a decimal ("2.5") or fraction ("5/2") string."""
    if not isinstance(text, str):
        raise ParseError("cost must be a string, got %r" % (text,))
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad cost %r: %s" % (text, exc))
    if value <= 0:
        raise ParseError("cost must be positive, got %r" % text)
    return value


def format_cost(value: Fraction) -> str:
    return str(Fraction(value))


def build_utility(descriptor, n: int, alphabet: StateAlphabet, sample):
    """Instantiate the utility named by a descriptor (recursively for
    combined kinds).  The sample is needed for the elimination wrappers."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ParseError("utility descriptor must be an object with a 'kind'")
    kind = descriptor["kind"]
    if kind == "k_of_n":
        if alphabet.states != BINARY.states:
            raise ParseError('k_of_n requires states ["0", "1"]')
        k = descriptor.get("k")
        if type(k) is not int or not 1 <= k <= n:
            raise ParseError("k_of_n needs an integer k with 1 <= k <= n")
        return KOfNUtility(n, k)
    if kind == "coverage":
        size = descriptor.get("universe_size")
        if type(size) is not int or size < 1:
            raise ParseError("coverage needs a positive universe_size")
        raw = descriptor.get("covers")
        if not isinstance(raw, dict):
            raise ParseError("coverage needs a covers map")
        covers = {(i, s): frozenset() for i in range(n) for s in alphabet}
        for item_key, per_state in raw.items():
            try:
                item = int(item_key) - 1
            except ValueError:
                raise ParseError("bad item key %r in covers" % item_key)
            if not 0 <= item < n:
                raise ParseError("item %s out of range 1..%d" % (item_key, n))
            if not isinstance(per_state, dict):
                raise ParseError("covers of item %s must be an object"
                                 % item_key)
            for s, elements in per_state.items():
                if s not in alphabet.states:
                    raise ParseError("undeclared state %r in covers" % s)
                if not isinstance(elements, list) or any(
                        type(u) is not int or not 0 <= u < size
                        for u in elements):
                    raise ParseError("covered elements must be a list of "
                                     "integers in 0..%d" % (size - 1))
                covers[(item, s)] = frozenset(elements)
        try:
            return CoverageUtility(covers, size, n, alphabet)
        except ScencoverError as exc:  # some element is left uncovered
            raise ParseError(str(exc))
    if kind == "or":
        left = build_utility(descriptor.get("left"), n, alphabet, sample)
        right = build_utility(descriptor.get("right"), n, alphabet, sample)
        return OrUtility(left, right)
    if kind == "table":
        # raw value table, mainly for counterexample files; keys are the
        # partial realization's entries joined by commas ("*" for unknown)
        goal = descriptor.get("goal")
        values = descriptor.get("values")
        if type(goal) is not int or goal < 1:
            raise ParseError("table needs a positive integer goal")
        if not isinstance(values, dict):
            raise ParseError("table needs a values map")
        table = {}
        for key, v in values.items():
            b = tuple(key.split(","))
            if len(b) != n or any(s != "*" and s not in alphabet.states
                                  for s in b):
                raise ParseError("bad table key %r" % key)
            if type(v) is not int or v < 0:
                raise ParseError("table values must be nonnegative integers")
            table[b] = v
        try:
            return TableUtility(table, goal, n, alphabet)
        except ScencoverError as exc:  # a partial missed or above the goal
            raise ParseError(str(exc))
    if kind in ("g_S", "g_W"):
        inner = build_utility(descriptor.get("inner"), n, alphabet, sample)
        wrap = scenario_count_utility if kind == "g_S" else scenario_weight_utility
        return wrap(inner, sample)
    raise ParseError("unknown utility kind %r" % kind)


def parse_document(doc):
    """Build (instance, descriptor) from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError("unsupported version %r" % (version,))
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ParseError("n must be a positive integer")
    states = doc.get("states")
    if (not isinstance(states, list) or len(states) < 2
            or any(not isinstance(s, str) for s in states)):
        raise ParseError("states must be a list of at least two strings")
    try:
        alphabet = StateAlphabet(tuple(states))
    except ScencoverError as exc:
        raise ParseError(str(exc))

    raw_sample = doc.get("sample")
    if not isinstance(raw_sample, list) or not raw_sample:
        raise ParseError("sample must be a non-empty list of rows")
    rows = []
    for k, row in enumerate(raw_sample, start=1):
        if not isinstance(row, dict):
            raise ParseError("sample row %d must be an object" % k)
        assignment = row.get("assignment")
        weight = row.get("weight")
        if (not isinstance(assignment, list) or len(assignment) != n
                or any(s not in states for s in assignment)):
            raise ParseError(
                "sample row %d: assignment must list %d declared states"
                % (k, n)
            )
        if type(weight) is not int or weight < 1:
            raise ParseError("sample row %d: weight must be a positive integer"
                             % k)
        rows.append((tuple(assignment), weight))
    try:
        sample = WeightedSample(tuple(rows))
    except ScencoverError as exc:
        raise ParseError(str(exc))

    raw_costs = doc.get("costs")
    if not isinstance(raw_costs, list) or len(raw_costs) != n:
        raise ParseError("costs must list exactly n entries")
    costs = CostVector(tuple(parse_cost(c) for c in raw_costs))

    descriptor = doc.get("utility")
    utility = build_utility(descriptor, n, alphabet, sample)
    try:
        instance = ScenarioInstance(utility, sample, costs, alphabet)
    except ScencoverError as exc:
        raise ParseError(str(exc))
    return instance, descriptor


def emit_document(instance: ScenarioInstance, descriptor) -> dict:
    return {
        "version": FORMAT_VERSION,
        "n": instance.n,
        "states": list(instance.alphabet.states),
        "sample": [
            {"assignment": list(a), "weight": w}
            for a, w in instance.sample.rows
        ],
        "costs": [format_cost(instance.costs[i]) for i in range(instance.n)],
        "utility": descriptor,
    }


def dumps_document(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads_instance(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    return parse_document(doc)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def save_instance(path, instance: ScenarioInstance, descriptor):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(emit_document(instance, descriptor)))


def tree_to_document(tree):
    """Explicit tree as nested JSON; items are 1-based."""
    if isinstance(tree, Leaf):
        return {"leaf": True}
    return {
        "item": tree.item + 1,
        "children": {s: tree_to_document(c) for s, c in tree.children.items()},
    }
