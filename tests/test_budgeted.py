"""Budgeted greedy maximization, its constants, and the budget search."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from scencover import budgeted
from scencover.budgeted import (
    ALPHA,
    GreedyOrder,
    IncrementalFunction,
    PreconditionError,
    best_ratio,
    budget_candidates,
    find_budget,
    wolsey_greedy,
)
from scencover.core import CostVector
from scencover.minsum import standard_greedy
from scencover.generate import COST_POOL, BitmaskCoverage, random_set_function
from scencover.oracle import optimal_budgeted
from conftest import (
    check_wolsey_bound,
    reference_best_ratio,
    reference_budget_candidates,
    reference_find_budget,
    reference_standard_greedy,
    reference_wolsey_greedy,
    seeded_budgeted,
)


def additive(values):
    return lambda r: sum(values[i] for i in r)


def exp_bounds(x: Fraction, terms: int = 20):
    """Rational bounds lo <= e^x <= hi for 0 <= x <= 1: the Taylor partial
    sum of `terms` terms, and it plus 3·x^terms/terms!, which exceeds the
    remainder e^x - sum (at most e^x·x^terms/terms! < 3·x^terms/terms!)."""
    total, term = Fraction(0), Fraction(1)
    for j in range(terms):
        total += term
        term = term * x / (j + 1)
    return total, total + 3 * term


def chi_of(alpha: Fraction) -> Fraction:
    """The chi with alpha = (1 - chi)/(2 - chi), the value of
    1 - e^(-chi) where e^chi = 2 - chi; alpha falls as chi grows."""
    return (1 - 2 * alpha) / (1 - alpha)


def test_alpha_lies_just_below_the_wolsey_constant():
    # e^x + x - 2 rises, so the true chi* lies below c exactly when
    # e^c > 2 - c, and then alpha* = alpha(chi*) > alpha(c); it lies above
    # c exactly when e^c < 2 - c, and then alpha* < alpha(c)
    assert ALPHA == Fraction(402846193967327, 2**50)
    assert Fraction(35, 100) < ALPHA < Fraction(36, 100)
    c = chi_of(ALPHA)
    assert 0 < c < 1 and exp_bounds(c)[0] > 2 - c  # ALPHA < alpha*
    gap = Fraction(1, 2**40)
    c = chi_of(ALPHA + gap)
    assert 0 < c < 1 and exp_bounds(c)[1] < 2 - c  # alpha* < ALPHA + 2^-40
    # independent root via mpmath
    with mpmath.workdps(30):
        root = mpmath.findroot(lambda x: mpmath.e**x + x - 2, 0.4)
        below = 1 - mpmath.e**-root - mpmath.mpf(ALPHA.numerator) / 2**50
    assert 1e-14 < below < 2e-14


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
    # a linear scan over the subset sums finds the walk's budget
    for seed in range(100):
        items, f, costs, _ = seeded_budgeted(seed, max_items=7)
        target = ALPHA * f(frozenset(items))
        first = next(c for c in reference_budget_candidates(items, costs)
                     if f(wolsey_greedy(items, f, costs, c)) >= target)
        assert find_budget(items, f, costs) == first


def test_find_budget_achieves_target():
    for seed in range(25):
        items, f, costs, _ = seeded_budgeted(seed + 100, max_items=8)
        budget = find_budget(items, f, costs)
        value = f(wolsey_greedy(items, f, costs, budget))
        assert value >= ALPHA * f(frozenset(items))


def test_budget_candidates_are_subset_sums():
    # the one-item subset sums, in cost units, each once: the caps where
    # the greedy's eligible set grows
    costs = CostVector((Fraction(1), Fraction(3, 2)))
    assert costs.scale == 2 and costs.units == (2, 3)
    assert budget_candidates([0, 1], costs) == [2, 3]
    costs = CostVector((Fraction(3, 2), Fraction(1), Fraction(3, 2)))
    assert budget_candidates([0, 1, 2], costs) == [2, 3]
    assert budget_candidates([0], costs) == [3]


rational_costs = st.one_of(
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 12)),
    st.sampled_from(COST_POOL),
)


@given(st.lists(rational_costs, max_size=12))
def test_budget_candidates_match_fraction_subset_sums(drawn):
    # the distinct `Fraction` costs, each a one-item subset sum
    costs = CostVector(tuple(drawn))
    items = list(range(len(costs)))
    candidates = budget_candidates(items, costs)
    assert all(type(k) is int for k in candidates)
    assert ([Fraction(k, costs.scale) for k in candidates]
            == sorted(set(costs)))
    assert set(candidates) <= {c * costs.scale for c in
                               reference_budget_candidates(items, costs)}


@st.composite
def budget_problems(draw, min_items=0):
    """(costs, f): up to 12 rational costs and a weighted coverage f."""
    costs = draw(st.lists(rational_costs, min_size=min_items, max_size=12))
    universe = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(1, 9), min_size=universe,
                            max_size=universe))
    masks = draw(st.lists(st.integers(1, (1 << universe) - 1),
                          min_size=len(costs), max_size=len(costs)))
    return CostVector(tuple(costs)), BitmaskCoverage(masks, weights)


gains = st.one_of(st.integers(-20, 60),
                  st.fractions(-20, 60, max_denominator=12))


@given(st.lists(st.tuples(rational_costs, gains), max_size=12), st.randoms())
def test_best_ratio_matches_fraction_reference(pairs, rnd):
    costs = CostVector(tuple(c for c, _ in pairs))
    gain = [g for _, g in pairs].__getitem__
    items = list(range(len(pairs)))
    rnd.shuffle(items)
    assert (best_ratio(items, gain, costs)
            == reference_best_ratio(items, gain, costs))


@given(budget_problems(), st.data())
def test_wolsey_greedy_matches_fraction_reference(problem, data):
    # budgets anywhere, and at subset sums and just either side of them,
    # where eligibility and the overshoot test change
    costs, f = problem
    items = list(range(len(costs)))
    picked = data.draw(st.lists(st.booleans(), min_size=len(items),
                                max_size=len(items)))
    near_sum = sum((costs[i] for i, p in zip(items, picked) if p),
                   Fraction(0)) + data.draw(
        st.sampled_from([Fraction(-1, 997), Fraction(0), Fraction(1, 997)]))
    anywhere = data.draw(st.fractions(-1, math.ceil(costs.total()) + 1,
                                      max_denominator=100))
    for budget in (near_sum, anywhere):
        assert (wolsey_greedy(items, f, costs, budget)
                == reference_wolsey_greedy(items, f, costs, budget))


@given(budget_problems(), st.data())
def test_shared_greedy_orders_match_fraction_reference(problem, data):
    # one dict of orders across budgets in random order, repeats included:
    # subset sums and 1/997 either side, below 0 and above the total
    costs, f = problem
    items = list(range(len(costs)))
    total = costs.total()
    subset_sums = st.lists(st.booleans(), min_size=len(items),
                           max_size=len(items)).map(
        lambda picked: sum((costs[i] for i, p in zip(items, picked) if p),
                           Fraction(0)))
    offsets = st.sampled_from([Fraction(-1, 997), Fraction(0),
                               Fraction(1, 997)])
    budget = st.one_of(
        st.builds(lambda s, d: s + d, subset_sums, offsets),
        st.fractions(min_value=-3, max_value=Fraction(-1, 997),
                     max_denominator=997),
        st.fractions(min_value=Fraction(1, 997), max_value=3,
                     max_denominator=997).map(lambda d: total + d),
    )
    budgets = data.draw(st.lists(budget, min_size=1, max_size=12))
    budgets += data.draw(st.permutations(budgets))
    orders: dict = {}
    for b in budgets:
        assert (wolsey_greedy(items, f, costs, b, orders)
                == reference_wolsey_greedy(items, f, costs, b))


def native_coverage(f: BitmaskCoverage) -> IncrementalFunction:
    """The weighted coverage f read natively: the state is the union of
    the picked items' element masks."""
    weights = f.weights
    return IncrementalFunction(
        0, lambda union, i: union | f.masks[i],
        lambda union: sum(w for u, w in enumerate(weights) if union >> u & 1))


@given(budget_problems(min_items=1), st.data())
def test_native_and_adapted_functions_agree(problem, data):
    # the greedy layer reads a native incremental function and the plain
    # frozenset form of the same function alike: same picks, values,
    # returned sets and budget
    costs, f = problem
    native = native_coverage(f)
    items = list(range(len(costs)))
    assert native(frozenset(items)) == f(frozenset(items))
    assert find_budget(items, native, costs) == find_budget(items, f, costs)
    orders = GreedyOrder(items, native, costs), GreedyOrder(items, f, costs)
    for order in orders:
        order.prefix(sum(costs.units))
    assert orders[0].picks == orders[1].picks
    assert sorted(orders[0].picks) == items
    assert orders[0].values == orders[1].values
    assert orders[0].spent == orders[1].spent
    budgets = data.draw(st.lists(
        st.fractions(0, math.ceil(costs.total()) + 1, max_denominator=24),
        min_size=1, max_size=6))
    shared: dict = {}
    for budget in budgets:
        got = wolsey_greedy(items, native, costs, budget, shared)
        assert got == wolsey_greedy(items, f, costs, budget)
        assert native(got) == f(got)


@settings(max_examples=20, deadline=None)
@given(budget_problems(min_items=1), st.integers(0, 1023))
@example(problem=(CostVector((Fraction(1), Fraction(3, 2), Fraction(1, 2))),
                  BitmaskCoverage([1, 2, 3], [4, 5])), root=3)
def test_saturated_orders_match_ranked_orders(problem, root):
    # a coverage certified monotone stops ranking once it saturates; the
    # same function uncertified ranks every round, and both give the same
    # picks, values and spent units at every prefix, the same greedy sets
    # at every candidate budget (orders shared across budgets) and the same
    # budget.  The root state covers some elements, every one when root is
    # the whole universe, and the order then saturates at its root
    costs, coverage = problem
    items = list(range(len(costs)))
    root &= (1 << len(coverage.weights)) - 1
    native = native_coverage(coverage)
    ranked = native.rooted_at(root)
    saturating = IncrementalFunction(root, native.add, native.value, True)
    functions = (saturating, ranked)
    # an order finds f(eligible set) in `known` only, as find_budget's
    # order of all items does
    assert GreedyOrder(items, saturating, costs).top is None
    top = saturating(frozenset(items))
    orders = [GreedyOrder(items, fn, costs) for fn in functions]
    assert orders[0].top == top == ranked(frozenset(items))
    assert orders[1].top is None
    caps = sorted({c + d for c in itertools.accumulate(costs.units)
                   for d in (-1, 0)})
    for cap in caps:
        k = orders[0].prefix(cap)
        assert k == orders[1].prefix(cap)
        assert orders[0].picks[:k] == orders[1].picks[:k]
        assert orders[0].values[:k + 1] == orders[1].values[:k + 1]
        assert orders[0].spent[:k + 1] == orders[1].spent[:k + 1]
    assert orders[0].picks == orders[1].picks
    assert orders[0].values == orders[1].values
    assert orders[0].spent == orders[1].spent
    # the greedy sets and the budget
    shared: tuple = ({}, {})
    for budget in reference_budget_candidates(items, costs):
        got = [wolsey_greedy(items, fn, costs, budget, orders)
               for fn, orders in zip(functions, shared)]
        assert got[0] == got[1]
    assert find_budget(items, saturating, costs) == find_budget(items, ranked,
                                                                costs)


@given(budget_problems(min_items=1))
def test_standard_greedy_matches_reference(problem):
    # the schedule greedy is the picks of one greedy order up to f(all):
    # the same schedule as its own loop over frozensets
    costs, f = problem
    items = list(range(len(costs)))
    assert (standard_greedy(items, f, costs)
            == reference_standard_greedy(items, f, costs))


@pytest.mark.parametrize("seed", [5, 9, 12])
def test_find_budget_ranks_each_greedy_round_once(seed):
    # the probes of one search share their rounds through f.rounds, so no
    # (state, item) is stepped twice, though different eligible sets can
    # reach one picked set (seeds 5 and 9 pick to equal remaining lists).
    # The folds of `__call__` (the full value, and each monotone order's
    # top, the value of its eligible set) are read from `known`, filled
    # beforehand, so every `add` counted is a round's step or the value of
    # a probe's last pick
    rng = random.Random(seed)
    n = 12
    coverage = random_set_function(rng, n, universe_size=10)
    costs = CostVector(tuple(rng.choice(COST_POOL) for _ in range(n)))
    expected = reference_find_budget(range(n), coverage, costs)
    for monotone in (False, True):
        steps = []

        def add(r, i):
            steps.append((r, i))
            return r | {i}

        f = IncrementalFunction(frozenset(), add, coverage, monotone)
        for cap in sorted(set(costs.units)):
            eligible = frozenset(i for i in range(n) if costs.units[i] <= cap)
            f.known[eligible] = coverage(eligible)
        assert find_budget(range(n), f, costs) == expected
        assert steps
        assert len(set(steps)) == len(steps), monotone


@given(budget_problems())
def test_find_budget_matches_fraction_reference(problem):
    costs, f = problem
    items = list(range(len(costs)))
    if not items:
        for search in (find_budget, reference_find_budget):
            with pytest.raises(PreconditionError):
                search(items, f, costs)
        return
    budget = find_budget(items, f, costs)
    assert type(budget) is Fraction
    assert budget == reference_find_budget(items, f, costs)


# the greedy set reaches the target at budget 1 ({4}), misses it at 3/2
# ({1}) and reaches it again from 2 on: the greedy value is not monotone in
# the budget, and a bisection over the subset sums would return 2
NON_MONOTONE = (
    CostVector((Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2),
                Fraction(1))),
    BitmaskCoverage([11, 24, 20, 18, 26], [9, 4, 7, 8, 1]),
)


@given(budget_problems(min_items=1))
@example(problem=NON_MONOTONE)
def test_find_budget_feasible_and_previous_candidate_is_not(problem):
    # whether or not the greedy value is monotone in the budget, the budget
    # is a feasible subset sum and every smaller subset sum is infeasible
    costs, f = problem
    items = list(range(len(costs)))
    target = ALPHA * f(frozenset(items))

    def feasible(budget):
        return f(wolsey_greedy(items, f, costs, budget)) >= target

    budget = find_budget(items, f, costs)
    sums = reference_budget_candidates(items, costs)
    k = sums.index(budget)
    assert feasible(budget)
    assert not any(feasible(c) for c in sums[:k])


def test_find_budget_returns_the_smallest():
    costs, f = NON_MONOTONE
    items = list(range(len(costs)))
    target = ALPHA * f(frozenset(items))
    feasible = [c for c in reference_budget_candidates(items, costs)
                if f(wolsey_greedy(items, f, costs, c)) >= target]
    assert feasible[:2] == [1, 2]
    assert Fraction(3, 2) not in feasible
    assert find_budget(items, f, costs) == 1


@pytest.mark.parametrize("seed,n", [(1, 21), (2, 21), (3, 22), (4, 22)])
def test_find_budget_rounds_up_to_the_grid(seed, n):
    # above 20 items the budget is the least feasible cap rounded up to the
    # grid total * k / 2^20: the first grid point at which the greedy is
    # feasible when the grid is finer than a cost unit
    rng = random.Random(seed)
    f = random_set_function(rng, n, universe_size=12)
    costs = CostVector(tuple(rng.choice(COST_POOL) for _ in range(n)))
    items = list(range(n))
    step = costs.total() / (1 << 20)
    assert sum(costs.units) < 1 << 20

    def feasible(budget):
        value = f(wolsey_greedy(items, f, costs, budget))
        return value >= ALPHA * f(frozenset(items))

    b = find_budget(items, f, costs)
    assert b == reference_find_budget(items, f, costs)
    assert (b / step).denominator == 1
    assert feasible(b)
    assert b == 0 or not feasible(b - step)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_find_budget_walks_few_breakpoints_on_diverse_costs(seed, monkeypatch):
    # 20 costs a/b with b up to 12 have up to 2^20 distinct subset sums;
    # the walk probes breakpoints only, at most 2n+1 of them on these draws
    rng = random.Random(seed)
    n = 20
    costs = CostVector(tuple(Fraction(rng.randint(1, 60), rng.randint(1, 12))
                             for _ in range(n)))
    f = BitmaskCoverage([rng.randrange(1, 1 << 12) for _ in range(n)],
                        [rng.randint(1, 9) for _ in range(12)])
    items = list(range(n))
    target = ALPHA * f(frozenset(items))

    def feasible(budget):
        return f(wolsey_greedy(items, f, costs, budget)) >= target

    probes = []

    def counted(*args):
        probes.append(args[3])
        return wolsey_greedy(*args)

    monkeypatch.setattr(budgeted, "wolsey_greedy", counted)
    b = find_budget(items, f, costs)
    monkeypatch.undo()
    assert 1 <= len(probes) <= 2 * n + 1
    assert probes[-1] == b
    assert feasible(b)
    # the greedy at one unit below b is the greedy at the breakpoint
    # before b
    assert not feasible(b - Fraction(1, costs.scale))
    assert all(not feasible(p) for p in probes[:-1])


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
