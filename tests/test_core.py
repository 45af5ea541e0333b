"""Data-model tests: partial realizations, samples, trees, expected cost."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scencover.core import (
    MAX_CHECK_SPACE,
    MAX_REALIZATIONS,
    UNKNOWN,
    CostVector,
    Leaf,
    Node,
    OracleBudgetError,
    PreconditionError,
    ScenarioInstance,
    StateAlphabet,
    StructureError,
    SuffixedStrategy,
    WeightedSample,
    empty_partial,
    enumerate_partials,
    enumerate_realizations,
    expected_cost,
    extend,
    follow,
    free_items,
    set_items,
    validate_tree,
)
from scencover import oracle
from scencover.adaptivegreedy import scenario_adaptive_greedy
from scencover.cli import _solve_tree
from scencover.mixedgreedy import scenario_mixed_greedy
from scencover.utility import BINARY, CoverageUtility, KOfNUtility, TableUtility
from conftest import (
    instance_stream,
    is_extension,
    reference_expected_cost,
    reference_follow,
    reference_validate_tree,
    seeded_instance,
    seeded_table_instance,
)

U = UNKNOWN


def unit_costs(n):
    return CostVector((Fraction(1),) * n)


def test_alphabet_rejects_degenerate():
    with pytest.raises(PreconditionError):
        StateAlphabet(("0",))
    with pytest.raises(PreconditionError):
        StateAlphabet(("0", "0"))
    with pytest.raises(PreconditionError):
        StateAlphabet(("0", UNKNOWN))


def test_extend_basic():
    assert extend((U, U), 0, "1") == ("1", U)
    assert extend(("0", U), 1, "0") == ("0", "0")


def test_extend_errors():
    with pytest.raises(PreconditionError):
        extend(("0", U), 0, "1")
    with pytest.raises(PreconditionError):
        extend((U, U), 5, "1")


def test_is_extension():
    assert is_extension(("0", "1"), ("0", U))
    assert not is_extension(("1", "1"), ("0", U))
    assert is_extension(("0", U), ("0", U))  # reflexive
    with pytest.raises(PreconditionError):
        is_extension(("0",), ("0", U))


def test_set_and_free_items():
    b = ("0", U, "1")
    assert set_items(b) == (0, 2)
    assert free_items(b) == (1,)


SAMPLE = WeightedSample(
    ((("0", "0"), 1), (("0", "1"), 2), (("1", "1"), 3))
)


def test_enumerate_partials_refused_above_budget():
    three = StateAlphabet(("0", "1", "2"))
    with pytest.raises(OracleBudgetError) as refused:
        enumerate_partials(three, 14)
    assert str(4 ** 14) in str(refused.value)
    assert "300000" in str(refused.value)
    # the budget is inclusive: 3^11 <= 300,000 < 3^12
    assert MAX_CHECK_SPACE == 300_000
    assert len(list(enumerate_partials(BINARY, 11))) == 3 ** 11
    with pytest.raises(OracleBudgetError):
        enumerate_partials(BINARY, 12)


def test_enumerate_realizations_refused_above_budget():
    # 2^17 <= 200,000 < 2^18
    assert MAX_REALIZATIONS == 200_000
    assert len(list(enumerate_realizations(BINARY, 17))) == 2 ** 17
    with pytest.raises(OracleBudgetError) as refused:
        enumerate_realizations(BINARY, 18)
    assert str(2 ** 18) in str(refused.value)
    assert "200000" in str(refused.value)


def test_consistent_rows():
    rows, w = SAMPLE.consistent_rows(("0", U))
    assert {a for a, _ in rows} == {("0", "0"), ("0", "1")}
    assert w == 3
    assert SAMPLE.weight_of((U, U)) == SAMPLE.total_weight == 6
    assert SAMPLE.weight_of(("1", "0")) == 0


def _scan(sample, b):
    """Reference for the row index: scan every row with is_extension."""
    rows = tuple((a, w) for a, w in sample.rows if is_extension(a, b))
    return rows, sum(w for _, w in rows)


#: Weights up to 2^20 give a sample up to 21 bit planes.
MAX_WEIGHT = 1 << 20


@st.composite
def sample_and_partial(draw):
    n = draw(st.integers(1, 5))
    states = ("0", "1", "2")[: draw(st.integers(2, 3))]
    full = st.tuples(*[st.sampled_from(states)] * n)
    assignments = draw(st.lists(full, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, MAX_WEIGHT),
                            min_size=len(assignments),
                            max_size=len(assignments)))
    # "2" on a binary sample and "x" always are states no row has
    b = draw(st.tuples(*[st.sampled_from(states + ("x", U, U))] * n))
    return WeightedSample(tuple(zip(assignments, weights))), b


def binary_sample(m, n, seed):
    """m distinct binary rows of n items in random order, with random
    weights up to MAX_WEIGHT."""
    rng = random.Random(seed)
    rows = rng.sample(list(itertools.product("01", repeat=n)), m)
    return WeightedSample(tuple((a, rng.randint(1, MAX_WEIGHT)) for a in rows))


@given(sample_and_partial())
@example((WeightedSample(()), (U, "0")))
# row masks one bit short of, at and one bit past a whole byte, and of 64
# rows, all or some of them; the last drops every row
@example((binary_sample(7, 4, 7), (U, U, U, U)))
@example((binary_sample(8, 4, 8), (U, U, U, U)))
@example((binary_sample(8, 4, 8), ("1", U, U, U)))
@example((binary_sample(9, 4, 9), (U, U, U, U)))
@example((binary_sample(9, 4, 9), (U, U, "0", U)))
@example((binary_sample(64, 6, 64), (U,) * 6))
@example((binary_sample(64, 6, 64), (U, "1", U, U, "0", U)))
@example((binary_sample(64, 6, 64), (U, "x", U, U, U, U)))
def test_row_index_matches_row_scan(drawn):
    sample, b = drawn
    rows, weight = _scan(sample, b)
    assert sample.consistent_rows(b) == (rows, weight)
    assert sample.weight_of(b) == weight
    assert sample.total_weight == sum(w for _, w in sample.rows)
    assert sample.mass(sample.mask_of(b)) == weight
    if sample.rows:
        # b's mask is the all-rows mask narrowed once per observed item
        mask = sample.all_rows
        for i, s in enumerate(b):
            if s != U:
                mask = sample.step_mask(mask, i, s)
        assert mask == sample.mask_of(b)
        for query in (sample.consistent_rows, sample.weight_of):
            with pytest.raises(PreconditionError):
                query(b + (U,))


def test_row_index_matches_row_scan_on_a_thousand_rows():
    # m = 1000 rows, as `serve` samples: partials with one to four observed
    # items, the empty partial, and one with a state no row has
    sample = binary_sample(1000, 12, 1000)
    rng = random.Random(1)
    partials = [empty_partial(12), ("x",) + (U,) * 11]
    for size in (1, 1, 2, 3, 4):
        b = list(empty_partial(12))
        for i in rng.sample(range(12), size):
            b[i] = rng.choice("01")
        partials.append(tuple(b))
    for b in partials:
        rows, weight = _scan(sample, b)
        assert sample.consistent_rows(b) == (rows, weight), b
        assert sample.weight_of(b) == weight, b
    assert len(sample.consistent_rows(partials[0])[0]) == 1000
    assert sample.consistent_rows(partials[1]) == ((), 0)


def test_sample_invariants():
    with pytest.raises(PreconditionError):
        WeightedSample(((("0", U), 1),))
    with pytest.raises(PreconditionError):
        WeightedSample(((("0", "0"), 1), (("0", "0"), 2)))
    with pytest.raises(PreconditionError):
        WeightedSample(((("0", "0"), 0),))
    with pytest.raises(PreconditionError):
        WeightedSample(((("0", "0"), 1), (("1",), 1)))


def test_cost_vector_positive():
    with pytest.raises(PreconditionError):
        CostVector((Fraction(0), Fraction(1)))


def test_follow_leaf():
    cost, terminal = follow(Leaf(), ("0", "1"), unit_costs(2))
    assert cost == 0
    assert terminal == (U, U)


def test_follow_one_step():
    tree = Node(0, {"0": Leaf(), "1": Leaf()})
    costs = CostVector((Fraction(2), Fraction(3)))
    cost, terminal = follow(tree, ("0", "1"), costs)
    assert cost == 2
    assert terminal == ("0", U)


def test_follow_chain():
    inner = Node(1, {"0": Leaf(), "1": Leaf()})
    tree = Node(0, {"0": inner, "1": Node(1, {"0": Leaf(), "1": Leaf()})})
    costs = CostVector((Fraction(2), Fraction(3)))
    cost, _ = follow(tree, ("1", "1"), costs)
    assert cost == 5


def test_follow_structural_errors():
    with pytest.raises(StructureError):
        follow(Node(0, {"0": Leaf()}), ("1", "0"), unit_costs(2))
    repeating = Node(0, {"0": Node(0, {"0": Leaf(), "1": Leaf()}), "1": Leaf()})
    with pytest.raises(StructureError):
        follow(repeating, ("0", "0"), unit_costs(2))


def chain_tree(n, alphabet, i=0):
    if i == n:
        return Leaf()
    return Node(i, {s: chain_tree(n, alphabet, i + 1) for s in alphabet})


def covering_instance(n, costs=None, weights=None):
    """Every item fully covers a private element in either state: the goal
    needs all n items, so the full chain is the only valid shape."""
    covers = {(i, s): frozenset({i}) for i in range(n) for s in BINARY}
    utility = CoverageUtility(covers, n, n, BINARY)
    rows = tuple(
        (tuple("1" if j == i else "0" for j in range(n)), (weights or [1] * n)[i])
        for i in range(n)
    )
    return ScenarioInstance(
        utility,
        WeightedSample(rows),
        costs or unit_costs(n),
        BINARY,
    )


def test_expected_cost_chain():
    inst = covering_instance(3)
    tree = chain_tree(3, BINARY)
    assert expected_cost(tree, inst) == 3
    assert validate_tree(tree, inst).status == "ok"


def test_expected_cost_two_paths():
    # two-row sample, unit weights, paths costing 2 and 4 -> expectation 3
    covers = {
        (0, "0"): frozenset({0, 1}),
        (0, "1"): frozenset({0}),
        (1, "0"): frozenset({1}),
        (1, "1"): frozenset({1}),
    }
    utility = CoverageUtility(covers, 2, 2, BINARY)
    sample = WeightedSample(((("0", "0"), 1), (("1", "1"), 1)))
    costs = CostVector((Fraction(2), Fraction(2)))
    inst = ScenarioInstance(utility, sample, costs, BINARY)
    tree = Node(0, {"0": Leaf(), "1": Node(1, {"0": Leaf(), "1": Leaf()})})
    assert expected_cost(tree, inst) == 3
    assert validate_tree(tree, inst).status == "ok"


def test_expected_cost_weight_scaling():
    inst = covering_instance(3, weights=[1, 2, 3])
    doubled = ScenarioInstance(
        inst.utility, inst.sample.scaled(2), inst.costs, inst.alphabet
    )
    tree = chain_tree(3, BINARY)
    assert expected_cost(tree, inst) == expected_cost(tree, doubled)


def test_path_costs_match_fraction_reference():
    # seeded instances draw costs such as 1/2 and 5/2, so the unit scale
    # L is often 2; weights go up to 5
    scales = set()
    for seed in range(40):
        inst, _ = seeded_instance(seed, max_n=5, max_states=3)
        scales.add(inst.costs.scale)
        for solver in ("mixed", "scenario-adaptive", "optimal"):
            tree = _solve_tree(inst, solver)[0]
            for a, _ in inst.sample.rows:
                cost, terminal = follow(tree, a, inst.costs)
                assert (cost, terminal) == reference_follow(tree, a, inst.costs)
                assert type(cost) is Fraction
            cost = expected_cost(tree, inst)
            assert cost == reference_expected_cost(tree, inst)
            assert type(cost) is Fraction
    assert scales == {1, 2}


def test_validate_single_leaf():
    # goal already met at the empty partial realization: leaf is valid
    table = {b: 1 for b in _all_partials(1)}
    g = TableUtility(table, 1, 1, BINARY)
    inst = ScenarioInstance(
        g, WeightedSample(((("0",), 1),)), unit_costs(1), BINARY
    )
    assert validate_tree(Leaf(), inst).status == "ok"


def test_validate_single_leaf_failure():
    k2 = KOfNUtility(2, 2)
    inst = ScenarioInstance(
        k2, WeightedSample(((("1", "1"), 1),)), unit_costs(2), BINARY
    )
    report = validate_tree(Leaf(), inst)
    assert report.status == "violations"
    assert report.violations


def test_validate_large_space_walks_the_tree():
    # 2^20 realizations and one query reaches the goal: the walk visits
    # three nodes, and `checked` still counts every realization
    n = 20
    covers = {(0, s): frozenset({0}) for s in BINARY}
    inst = ScenarioInstance(
        CoverageUtility(covers, 1, n, BINARY),
        WeightedSample(((("0",) * n, 1),)),
        unit_costs(n),
        BINARY,
    )
    report = validate_tree(Node(0, {s: Leaf() for s in BINARY}), inst)
    assert report.status == "ok"
    assert report.checked == 2 ** 20
    report = validate_tree(Node(0, {"0": Leaf()}), inst)
    assert report.status == "violations"
    assert report.checked == 2 ** 20


def test_validate_rejects_unknown_scope():
    with pytest.raises(PreconditionError):
        validate_tree(Leaf(), covering_instance(1), scope="sample")


def tree_sites(tree, path=(), items=()):
    """(path of child keys, subtree, items queried above) for every subtree."""
    yield path, tree, items
    if isinstance(tree, Node):
        for s, child in tree.children.items():
            yield from tree_sites(child, path + (s,), items + (tree.item,))


def replaced(tree, path, make):
    """Copy of the tree with the subtree at `path` swapped for make(subtree)."""
    if not path:
        return make(tree)
    children = dict(tree.children)
    children[path[0]] = replaced(children[path[0]], path[1:], make)
    return Node(tree.item, children)


def mutate(tree, mutation, inst, data):
    """The tree with one defect planted at a drawn site, or unchanged if no
    site fits the mutation."""
    sites = [(path, items) for path, t, items in tree_sites(tree)
             if mutation == "non_node" or isinstance(t, Node)]
    if mutation == "repeat":
        sites = [(path, items) for path, items in sites if items]
    if mutation == "none" or not sites:
        return tree
    path, items = data.draw(st.sampled_from(sites))
    if mutation == "drop_child":
        gone = data.draw(st.sampled_from(inst.alphabet.states))
        return replaced(tree, path, lambda t: Node(
            t.item, {s: c for s, c in t.children.items() if s != gone}))
    if mutation == "repeat":
        again = data.draw(st.sampled_from(items))
        return replaced(tree, path, lambda t: Node(again, t.children))
    if mutation == "extra_child":
        return replaced(tree, path, lambda t: Node(
            t.item, {**t.children, "x": "not a node"}))
    if mutation == "cut":
        return replaced(tree, path, lambda t: Leaf())
    return replaced(tree, path, lambda t: "not a node")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(("mixed", "scenario-mixed", "scenario-adaptive", "optimal")),
       st.sampled_from(("none", "drop_child", "repeat", "extra_child", "cut",
                        "non_node")),
       st.data())
def test_validate_matches_enumeration(seed, solver, mutation, data):
    inst, _ = seeded_instance(seed, max_n=5, max_states=3)
    tree = mutate(_solve_tree(inst, solver)[0], mutation, inst, data)
    report = validate_tree(tree, inst)
    reference = reference_validate_tree(tree, inst)
    assert (report.status, report.checked) == (reference.status, reference.checked)
    assert bool(report.violations) == (report.status == "violations")


def _all_partials(n):
    import itertools

    return itertools.product(("0", "1", U), repeat=n)


@given(st.integers(2, 5), st.data())
def test_extend_is_extension_property(n, data):
    b = empty_partial(n)
    for _ in range(data.draw(st.integers(0, n))):
        frees = free_items(b)
        if not frees:
            break
        i = data.draw(st.sampled_from(frees))
        before = b
        b = extend(b, i, data.draw(st.sampled_from(["0", "1"])))
        assert is_extension(b, before)
        assert len(set_items(b)) == len(set_items(before)) + 1


def test_suffix_bases_stay_finished(monkeypatch):
    # SuffixedStrategy's contract, by enumeration: where a base returns None
    # at b and the suffix goes on, the base returns None on every extension
    oracle_bases = []

    def keep_base(base, utility):
        oracle_bases.append(base)
        return SuffixedStrategy(base, utility)

    monkeypatch.setattr(oracle, "SuffixedStrategy", keep_base)
    cases = [inst for _, inst, _ in instance_stream(15, base_seed=9800, max_n=4)]
    cases += [seeded_table_instance(seed, max_n=3) for seed in range(15)]
    premises = 0
    for inst in cases:
        g = inst.utility
        oracle.optimal_tree(inst)
        bases = (scenario_mixed_greedy(inst).base,
                 scenario_adaptive_greedy(inst).base, oracle_bases.pop())
        partials = list(enumerate_partials(inst.alphabet, inst.n))
        for base in bases:
            answers = {}
            for b in partials:
                try:
                    answers[b] = base.next_item(b)
                except PreconditionError as exc:
                    answers[b] = str(exc)
            for b, i in answers.items():
                if i is None and g.value(b) < g.goal:
                    premises += 1
                    for b2 in partials:
                        if is_extension(b2, b):
                            assert answers[b2] is None, (base, b, b2)
    assert premises
