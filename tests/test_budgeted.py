"""Budgeted greedy maximization, its constants, and the budget search."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from scencover.budgeted import (
    ALPHA,
    CHI_TOLERANCE,
    PreconditionError,
    budget_candidates,
    check_wolsey_bound,
    find_budget,
    solve_chi,
    wolsey_greedy,
)
from scencover.core import CostVector
from scencover.generate import COST_POOL, random_set_function
from scencover.oracle import optimal_budgeted
from conftest import seeded_budgeted


def additive(values):
    return lambda r: sum(values[i] for i in r)


def test_solve_chi_constants():
    constants = solve_chi()
    chi = constants.chi
    assert abs(math.exp(chi) - (2 - chi)) <= CHI_TOLERANCE
    assert Fraction(35, 100) < constants.alpha < Fraction(36, 100)
    # independent root via mpmath
    root = mpmath.findroot(lambda x: mpmath.e**x + x - 2, 0.4)
    assert abs(chi - float(root)) < 1e-10
    assert abs(constants.alpha - (1 - float(mpmath.e**-root))) < 1e-10


def test_wolsey_greedy_hand_trace():
    # ratios 3/2 vs 1: picks item 0 (spent 2, not over), then item 1
    # (spent 3 > 2); final comparison keeps {0} since f({1}) = 1 < 3
    f = additive([3, 1])
    costs = CostVector((Fraction(2), Fraction(1)))
    assert wolsey_greedy([0, 1], f, costs, Fraction(2)) == frozenset({0})


def test_wolsey_greedy_zero_budget():
    f = additive([3, 1])
    costs = CostVector((Fraction(2), Fraction(1)))
    assert wolsey_greedy([0, 1], f, costs, Fraction(0)) == frozenset()


def test_wolsey_greedy_single_item():
    f = additive([2])
    costs = CostVector((Fraction(1),))
    assert wolsey_greedy([0], f, costs, Fraction(3)) == frozenset({0})


def test_wolsey_greedy_respects_budget_eligibility():
    for seed in range(30):
        items, f, costs, budget = seeded_budgeted(seed, max_items=8)
        r = wolsey_greedy(items, f, costs, budget)
        assert all(costs[i] <= budget for i in r)
        assert len(r) == len(set(r))


def test_find_budget_single_item():
    f = additive([1])
    costs = CostVector((Fraction(5),))
    assert find_budget([0], f, costs) == 5


def test_find_budget_two_halves():
    # one unit-cost item already reaches 1/2 >= alpha of the total
    f = additive([1, 1])
    costs = CostVector((Fraction(1), Fraction(1)))
    assert find_budget([0, 1], f, costs) == 1


def test_find_budget_rejects_zero_function():
    f = additive([0, 0])
    costs = CostVector((Fraction(1), Fraction(1)))
    with pytest.raises(PreconditionError):
        find_budget([0, 1], f, costs)


def test_find_budget_first_feasible_candidate():
    # the bisection assumes the greedy value is monotone in the budget; a
    # linear scan over the candidates must find the same budget
    for seed in range(100):
        items, f, costs, _ = seeded_budgeted(seed, max_items=7)
        target = ALPHA * f(frozenset(items))
        first = next(c for c in budget_candidates(items, costs)
                     if f(wolsey_greedy(items, f, costs, c)) >= target)
        assert find_budget(items, f, costs) == first


def test_find_budget_achieves_target():
    for seed in range(25):
        items, f, costs, _ = seeded_budgeted(seed + 100, max_items=8)
        budget = find_budget(items, f, costs)
        value = f(wolsey_greedy(items, f, costs, budget))
        assert value >= ALPHA * f(frozenset(items))


def test_budget_candidates_are_subset_sums():
    costs = CostVector((Fraction(1), Fraction(3, 2)))
    assert budget_candidates([0, 1], costs) == [
        Fraction(0), Fraction(1), Fraction(3, 2), Fraction(5, 2)
    ]


def reference_subset_sums(items, costs):
    """The candidate list as Fraction subset sums, sorted."""
    sums = {Fraction(0)}
    for i in items:
        sums |= {s + costs[i] for s in sums}
    return sorted(sums)


rational_costs = st.one_of(
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 12)),
    st.sampled_from(COST_POOL),
)


@given(st.lists(rational_costs, max_size=12))
def test_budget_candidates_match_fraction_subset_sums(drawn):
    costs = CostVector(tuple(drawn))
    items = list(range(len(costs)))
    candidates = budget_candidates(items, costs)
    assert candidates == reference_subset_sums(items, costs)
    assert all(type(c) is Fraction for c in candidates)


@pytest.mark.parametrize("n", [21, 22, 23, 24])
def test_budget_grid_points(n):
    rng = random.Random(n)
    costs = CostVector(tuple(rng.choice(COST_POOL) for _ in range(n)))
    total = costs.total()
    grid = budget_candidates(range(n), costs, grid_bits=3)
    assert len(grid) == 9
    # iteration stops at the first IndexError, so check that one first
    with pytest.raises(IndexError):
        grid[len(grid)]
    with pytest.raises(IndexError):
        grid[-len(grid) - 1]
    assert grid[-1] == total and grid[-9] == 0
    assert list(grid) == [k * total / 8 for k in range(9)]


def test_budget_grid_is_not_materialised():
    costs = CostVector(tuple(Fraction(i + 1, 3) for i in range(22)))
    tracemalloc.start()
    try:
        grid = budget_candidates(range(22), costs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == (1 << 20) + 1
    assert peak < 1 << 20


@pytest.mark.parametrize("seed,n", [(1, 21), (2, 21), (3, 22), (4, 22)])
def test_find_budget_bisects_the_grid(seed, n):
    # above 20 items the candidates are the grid total * k / 2^20; the
    # search returns the first grid point at which the greedy is feasible
    rng = random.Random(seed)
    f = random_set_function(rng, n, universe_size=12)
    costs = CostVector(tuple(rng.choice(COST_POOL) for _ in range(n)))
    items = list(range(n))
    step = costs.total() / (1 << 20)

    def feasible(budget):
        value = f(wolsey_greedy(items, f, costs, budget))
        return value >= ALPHA * f(frozenset(items))

    b = find_budget(items, f, costs)
    assert (b / step).denominator == 1
    assert feasible(b)
    assert b == 0 or not feasible(b - step)


def test_check_wolsey_bound_small():
    for seed in range(20):
        items, f, costs, budget = seeded_budgeted(seed + 50, max_items=8)
        assert check_wolsey_bound(items, f, costs, budget)


def test_check_wolsey_bound_modular():
    f = additive([5, 4, 3, 2, 1])
    costs = CostVector(tuple(Fraction(c) for c in (2, 1, 2, 1, 3)))
    for budget in (Fraction(0), Fraction(2), Fraction(4), Fraction(9)):
        assert check_wolsey_bound(list(range(5)), f, costs, budget)


def test_full_budget_reaches_alpha_of_total():
    for seed in range(10):
        items, f, costs, _ = seeded_budgeted(seed + 200, max_items=8)
        total = sum((costs[i] for i in items), Fraction(0))
        value = f(wolsey_greedy(items, f, costs, total))
        assert value >= ALPHA * f(frozenset(items))


def test_optimal_budgeted_examples():
    f = additive([3, 2])
    costs = CostVector((Fraction(2), Fraction(2)))
    assert optimal_budgeted([0, 1], f, costs, Fraction(0)) == (frozenset(), 0)
    assert optimal_budgeted([0, 1], f, costs, Fraction(4)) == (
        frozenset({0, 1}), 5
    )
    # knapsack conflict: only one of the two fits
    assert optimal_budgeted([0, 1], f, costs, Fraction(2)) == (frozenset({0}), 3)
