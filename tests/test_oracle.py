"""Brute-force ground-truth solvers: size guards and sanity directions."""

import random
from fractions import Fraction

import pytest

from scencover.core import (
    CostVector,
    Node,
    PreconditionError,
    ScenarioInstance,
    WeightedSample,
    empty_partial,
    expected_cost,
    extend,
    validate_tree,
)
from scencover import oracle
from scencover.generate import random_instance
from scencover.oracle import (
    MAX_SUBSET_ITEMS,
    OracleBudgetError,
    optimal_budgeted,
    optimal_schedule,
    optimal_tree,
)
from scencover.utility import BINARY, CoverageUtility, KOfNUtility
from conftest import (
    FAMILIES,
    fixed_order_completion,
    instance_stream,
    reference_optimal_tree,
)


def unit_costs(n):
    return CostVector((Fraction(1),) * n)


def all_items_instance(n):
    """Each item privately covers one element: every strategy needs all n."""
    covers = {(i, s): frozenset({i}) for i in range(n) for s in BINARY}
    utility = CoverageUtility(covers, n, n, BINARY)
    sample = WeightedSample(((tuple("0" for _ in range(n)), 1),))
    return ScenarioInstance(utility, sample, unit_costs(n), BINARY)


def test_optimal_tree_needs_all_items():
    inst = all_items_instance(3)
    tree, cost = optimal_tree(inst)
    assert cost == 3
    assert validate_tree(tree, inst).status == "ok"


def test_optimal_tree_cheap_separator():
    # the cheap item, observed "1", meets the 1-of-2 goal on the only row;
    # the zero-weight "0" branch contributes nothing to the expectation
    g = KOfNUtility(2, 1)
    sample = WeightedSample(((("1", "1"), 1),))
    costs = CostVector((Fraction(3), Fraction(1)))
    inst = ScenarioInstance(g, sample, costs, BINARY)
    tree, cost = optimal_tree(inst)
    assert cost == 1
    assert validate_tree(tree, inst).status == "ok"


def test_optimal_tree_lower_bounds_solvers():
    from scencover.mixedgreedy import mixed_greedy

    for _, inst, _ in instance_stream(15, base_seed=40, max_n=4, max_rows=5):
        _, opt = optimal_tree(inst)
        assert expected_cost(mixed_greedy(inst), inst) >= opt


def zero_mass_nodes(tree, instance, b=None):
    """Internal nodes of the tree that no sample row reaches."""
    if b is None:
        b = empty_partial(instance.n)
    if not isinstance(tree, Node):
        return 0
    own = 1 if instance.sample.weight_of(b) == 0 else 0
    return own + sum(zero_mass_nodes(child, instance, extend(b, tree.item, s))
                     for s, child in tree.children.items())


def equal_costs(inst, cost):
    """The instance with every item costing `cost`: many items tie."""
    return ScenarioInstance(inst.utility, inst.sample,
                            CostVector((cost,) * inst.n), inst.alphabet)


def raise_oracle_budget(monkeypatch, items, rows):
    """Admit up to `items` items and `rows` sample rows to `optimal_tree`."""
    monkeypatch.setattr(oracle, "MAX_ORACLE_ITEMS", items)
    monkeypatch.setattr(oracle, "MAX_ORACLE_ROWS", rows)


def larger_instances(count, seed):
    """Binary instances of n = 7 and 8 items, beyond the oracle's budget."""
    rng = random.Random(seed)
    for k in range(count):
        inst, descriptor = random_instance(
            rng, n=7 + k % 2, num_states=2, sample_size=rng.randint(4, 12),
            family=FAMILIES[k % len(FAMILIES)],
            universe_size=rng.randint(3, 6))
        yield inst, descriptor


def test_optimal_tree_matches_reference_recursion(monkeypatch):
    families, states, zero_mass = set(), set(), 0
    cases = []
    for _, inst, descriptor in instance_stream(60, base_seed=300, max_n=5,
                                               max_rows=6):
        cases.append((inst, descriptor))
        cases.append((equal_costs(inst, Fraction(3, 2)), descriptor))
    cases += larger_instances(6, seed=11)
    raise_oracle_budget(monkeypatch, items=8, rows=12)
    for inst, descriptor in cases:
        tree, cost = optimal_tree(inst)
        ref_tree, ref_cost = reference_optimal_tree(inst)
        assert tree == ref_tree
        assert cost == ref_cost
        families.add(descriptor["kind"])
        states.add(len(inst.alphabet))
        zero_mass += zero_mass_nodes(tree, inst)
    assert families == set(FAMILIES)
    assert states == {2, 3}
    assert zero_mass > 0
    assert {inst.n for inst, _ in cases} >= {7, 8}


def test_optimal_tree_matches_reference_at_nine_items(monkeypatch):
    # each child's row mask is one `step_mask` of its parent's; at n=9 and
    # m=24 the passed masks must give the reference's trees and costs
    rng = random.Random(9024)
    raise_oracle_budget(monkeypatch, items=9, rows=24)
    for k in range(2 * len(FAMILIES)):
        inst, _ = random_instance(
            rng, n=9, num_states=2, sample_size=24,
            family=FAMILIES[k % len(FAMILIES)], universe_size=rng.randint(3, 6))
        tree, cost = optimal_tree(inst)
        ref_tree, ref_cost = reference_optimal_tree(inst)
        assert tree == ref_tree
        assert cost == ref_cost


def test_optimal_tree_budget_refusal(monkeypatch):
    inst = all_items_instance(7)
    # the refusal names the instance's shape and each limit
    with pytest.raises(OracleBudgetError,
                       match=r"\(n=7, states=2, rows=1\) exceeds the oracle "
                             r"budget of 6 items, 3 states and 8 rows"):
        optimal_tree(inst)
    # a raised budget admits it
    monkeypatch.setattr(oracle, "MAX_ORACLE_ITEMS", 7)
    tree, cost = optimal_tree(inst)
    assert cost == 7


def test_fixed_order_completion_reaches_goal():
    g = KOfNUtility(3, 2)
    tree = fixed_order_completion(g, ("*", "*", "*"))
    sample = WeightedSample(((("1", "1", "0"), 1),))
    inst = ScenarioInstance(g, sample, unit_costs(3), BINARY)
    assert validate_tree(tree, inst).status == "ok"


def test_optimal_budgeted_trivial_budgets():
    f = lambda r: sum({0: 3, 1: 2}[i] for i in r)
    costs = CostVector((Fraction(2), Fraction(1)))
    assert optimal_budgeted([0, 1], f, costs, Fraction(0)) == (frozenset(), 0)
    assert optimal_budgeted([0, 1], f, costs, Fraction(3)) == (
        frozenset({0, 1}), 5
    )


def test_optimal_budgeted_refuses_21_items():
    # 2^21 subsets: refused before f sees any of them
    def never(r):
        raise AssertionError("f ran on 21 items")

    assert MAX_SUBSET_ITEMS == 20
    with pytest.raises(OracleBudgetError, match=r"\b21\b.*\b20\b"):
        optimal_budgeted(range(21), never, unit_costs(21), Fraction(3))


def test_optimal_schedule_single_item():
    f = lambda r: 1 if r else 0
    costs = CostVector((Fraction(2),))
    schedule, cost = optimal_schedule([0], f, costs)
    assert schedule == ((0, Fraction(2)),)
    assert cost == 2


def test_optimal_schedule_modular_order():
    f = lambda r: sum({0: 1, 1: 4}[i] for i in r)
    costs = CostVector((Fraction(1), Fraction(1)))
    schedule, _ = optimal_schedule([0, 1], f, costs)
    assert [i for i, _ in schedule] == [1, 0]  # larger gain first


def test_optimal_schedule_degenerate():
    f = lambda r: 7
    costs = CostVector((Fraction(1),))
    assert optimal_schedule([0], f, costs) == ((), Fraction(0))


def test_empty_sample_rejected():
    g = KOfNUtility(2, 1)
    inst = ScenarioInstance(g, WeightedSample(()), unit_costs(2), BINARY)
    with pytest.raises(PreconditionError):
        optimal_tree(inst)
