"""Schedules, truncation, the exact cost integral, and the greedy scheduler."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from scencover import minsum, oracle
from scencover.core import (
    CostVector,
    OracleBudgetError,
    PreconditionError,
    WeightedSample,
)
from scencover.generate import random_set_function
from scencover.minsum import (
    budget_cut_index,
    check_truncated_bounds,
    full_cost_schedule,
    greedy_prefix,
    length,
    make_job,
    make_schedule,
    schedule_cost,
    standard_greedy,
    truncate,
)
from scencover.mixedgreedy import weight_removal_function
from scencover.oracle import optimal_schedule
from scencover.utility import BINARY, KOfNUtility
from scencover.core import ScenarioInstance
from conftest import concat, job_after


def additive(values):
    return lambda r: sum(values[i] for i in r)


def test_truncate_mid_pair():
    s = make_schedule([(0, 2), (1, 3)])
    assert truncate(s, 4) == ((0, Fraction(2)), (1, Fraction(2)))


def test_truncate_identity_beyond_length():
    s = make_schedule([(0, 2), (1, 3)])
    assert truncate(s, 5) == s
    assert truncate(s, 99) == s


def test_truncate_zero():
    s = make_schedule([(0, 2), (1, 3)])
    assert truncate(s, 0) == ((0, Fraction(0)),)


@given(st.lists(st.tuples(st.integers(0, 4),
                          st.fractions(min_value=0, max_value=5)), max_size=5),
       st.fractions(min_value=0, max_value=30))
def test_truncate_idempotent(pairs, t):
    s = make_schedule(pairs)
    assert truncate(s, length(s)) == s
    assert truncate(truncate(s, t), t) == truncate(s, t)


def test_schedule_cost_single_pair():
    f = additive([1])
    costs = CostVector((Fraction(2),))
    job = make_job(f, costs, [0])
    # credit lands only at completion: integrand is 1 on [0, 2)
    assert schedule_cost(job, full_cost_schedule([0], costs)) == 2


def test_schedule_cost_two_halves():
    f = additive([1, 1])
    costs = CostVector((Fraction(1), Fraction(1)))
    job = make_job(f, costs, [0, 1])
    assert schedule_cost(job, full_cost_schedule([0, 1], costs)) == Fraction(3, 2)


def test_schedule_cost_already_complete():
    f = lambda r: 5  # constant: nothing left to gain
    costs = CostVector((Fraction(2),))
    job = make_job(f, costs, [0])
    assert schedule_cost(job, full_cost_schedule([0], costs)) == 0


def test_partial_time_earns_no_credit():
    f = additive([1])
    costs = CostVector((Fraction(2),))
    job = make_job(f, costs, [0])
    assert job.value(((0, Fraction(1)),)) == 0
    assert job.value(((0, Fraction(2)),)) == 1


def test_standard_greedy_ratio_order():
    f = additive([4, 1])
    costs = CostVector((Fraction(1), Fraction(1)))
    g = standard_greedy([0, 1], f, costs)
    assert [i for i, _ in g] == [0, 1]


def test_standard_greedy_single_cover():
    values = [7, 7]
    f = lambda r: 7 if r else 0  # either item alone finishes the job
    costs = CostVector((Fraction(1), Fraction(2)))
    g = standard_greedy([0, 1], f, costs)
    assert len(g) == 1 and g[0][0] == 0


def test_standard_greedy_rejects_zero():
    with pytest.raises(PreconditionError):
        standard_greedy([0, 1], lambda r: 0, CostVector((Fraction(1), Fraction(1))))


def test_greedy_factor_4_exhaustive():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = random_set_function(rng, n, universe_size=6)
        costs = CostVector(
            tuple(Fraction(rng.randint(1, 5), rng.choice([1, 2])) for _ in range(n))
        )
        items = list(range(n))
        job = make_job(f, costs, items)
        g_cost = schedule_cost(job, standard_greedy(items, f, costs))
        _, best = optimal_schedule(items, f, costs)
        assert g_cost <= 4 * best


def test_budget_cut_index():
    g = make_schedule([(0, 2), (1, 3), (2, 1)])
    # first j-1 pairs strictly under the budget
    assert budget_cut_index(g, Fraction(1)) == 1
    assert budget_cut_index(g, Fraction(3)) == 2
    assert budget_cut_index(g, Fraction(6)) == 3
    assert budget_cut_index(g, Fraction(7)) == 4


def test_check_truncated_bounds_single_item():
    f = additive([2])
    costs = CostVector((Fraction(3),))
    report = check_truncated_bounds([0], f, costs, Fraction(2))
    assert report.holds_factor4 and report.holds_factor8


def test_check_truncated_bounds_at_full_length():
    f = additive([3, 1, 2])
    costs = CostVector((Fraction(1), Fraction(2), Fraction(1)))
    items = [0, 1, 2]
    g = standard_greedy(items, f, costs)
    report = check_truncated_bounds(items, f, costs, length(g))
    assert report.holds_factor4 and report.holds_factor8


def test_permutation_checks_refuse_nine_items(monkeypatch):
    # 9! cover schedules: refused before any schedule is costed
    def never(*args):
        raise AssertionError("schedule_cost ran on 9 items")

    monkeypatch.setattr(minsum, "schedule_cost", never)
    monkeypatch.setattr(oracle, "schedule_cost", never)
    items = list(range(9))
    f = additive([1] * 9)
    costs = CostVector((Fraction(1),) * 9)
    with pytest.raises(OracleBudgetError):
        check_truncated_bounds(items, f, costs, Fraction(2))
    with pytest.raises(OracleBudgetError):
        optimal_schedule(items, f, costs)


def test_check_truncated_bounds_rejects_long_budget():
    f = additive([1])
    costs = CostVector((Fraction(1),))
    with pytest.raises(PreconditionError):
        check_truncated_bounds([0], f, costs, Fraction(5))


def test_cost_additivity_identity():
    # cost(f, prefix) + cost(residual-after-prefix, suffix)
    #   = cost(f, prefix followed by suffix)
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = random_set_function(rng, n, universe_size=6)
        costs = CostVector(tuple(Fraction(rng.randint(1, 4)) for _ in range(n)))
        items = list(range(n))
        job = make_job(f, costs, items)
        perm = list(items)
        rng.shuffle(perm)
        cut = rng.randint(0, n)
        prefix = full_cost_schedule(perm[:cut], costs)
        suffix = full_cost_schedule(perm[cut:], costs)
        lhs = schedule_cost(job, prefix) + schedule_cost(job_after(job, prefix), suffix)
        assert lhs == schedule_cost(job, concat(prefix, suffix))


def _instance_with_sigma():
    g = KOfNUtility(2, 1)
    sample = WeightedSample(((("0", "0"), 1), (("0", "1"), 2), (("1", "1"), 1)))
    costs = CostVector((Fraction(1), Fraction(1)))
    return ScenarioInstance(g, sample, costs, BINARY)


def _residual_mass(inst, b, sigma):
    """Stage-1 mass removal read as a share of the consistent weight: the
    job the backbone audit schedules."""
    h = weight_removal_function(inst, b, sigma)
    return make_job(h, inst.costs, scale=inst.sample.weight_of(b))


def test_residual_mass_basics():
    inst = _instance_with_sigma()
    job = _residual_mass(inst, ("*", "*"), {0: "0", 1: "1"})
    assert job.value(()) == 0
    # anchoring both items leaves only the (0,1) row: 2 of 4 total
    assert job.value(full_cost_schedule((0, 1), inst.costs)) == Fraction(1, 2)


def test_residual_mass_sigma_off_sample():
    inst = _instance_with_sigma()
    # (1,0) is not a sample row
    job = _residual_mass(inst, ("*", "*"), {0: "1", 1: "0"})
    assert job.value(full_cost_schedule((0, 1), inst.costs)) == 1


def test_residual_mass_single_matching_row():
    g = KOfNUtility(2, 1)
    sample = WeightedSample(((("0", "0"), 3),))
    inst = ScenarioInstance(
        g, sample, CostVector((Fraction(1), Fraction(1))), BINARY
    )
    job = _residual_mass(inst, ("*", "*"), {0: "0", 1: "0"})
    for r in ((), (0,), (1,), (0, 1)):
        assert job.value(full_cost_schedule(r, inst.costs)) == 0


def test_residual_mass_requires_mass():
    inst = _instance_with_sigma()
    h = weight_removal_function(inst, ("1", "0"), {})
    assert h(frozenset()) == 0
    with pytest.raises(PreconditionError):
        _residual_mass(inst, ("1", "0"), {})
