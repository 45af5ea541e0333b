"""The expected-gain-per-cost policy and its scenario wrapper."""

import itertools
from fractions import Fraction

from scencover.adaptivegreedy import (
    AdaptiveGreedyStrategy,
    scenario_adaptive_greedy,
)
from scencover.core import (
    UNKNOWN,
    CostVector,
    Leaf,
    ScenarioInstance,
    WeightedSample,
    empty_partial,
    enumerate_realizations,
    expected_cost,
    materialize,
    validate_tree,
)
from scencover.oracle import optimal_tree
from scencover.utility import (
    BINARY,
    KOfNUtility,
    TableUtility,
    scenario_weight_utility,
)
from conftest import instance_stream

U = UNKNOWN


def unit_costs(n):
    return CostVector((Fraction(1),) * n)


def test_goal_at_start_yields_empty_strategy():
    table = {b: 1 for b in itertools.product(("0", "1", U), repeat=2)}
    g = TableUtility(table, 1, 2, BINARY)
    sample = WeightedSample(((("0", "0"), 1),))
    strategy = AdaptiveGreedyStrategy(g, sample, unit_costs(2))
    assert strategy.next_item(empty_partial(2)) is None
    assert materialize(strategy, BINARY, 2) == Leaf()


def test_single_item_chosen():
    g = KOfNUtility(1, 1)
    sample = WeightedSample(((("1",), 1),))
    strategy = AdaptiveGreedyStrategy(g, sample, unit_costs(1))
    assert strategy.next_item(empty_partial(1)) == 0


def test_scenario_adaptive_greedy_valid():
    for _, inst, _ in instance_stream(25, base_seed=500, max_n=4, max_rows=6):
        strategy = scenario_adaptive_greedy(inst)
        tree = materialize(strategy, inst.alphabet, inst.n)
        assert validate_tree(tree, inst).status == "ok"


def test_cost_at_least_optimal():
    for _, inst, _ in instance_stream(15, base_seed=550, max_n=4, max_rows=6):
        strategy = scenario_adaptive_greedy(inst)
        tree = materialize(strategy, inst.alphabet, inst.n)
        _, opt = optimal_tree(inst)
        assert expected_cost(tree, inst) >= opt


def test_choice_invariant_under_weight_scaling():
    for _, inst, _ in instance_stream(10, base_seed=600, max_n=4, max_rows=5):
        scaled = ScenarioInstance(
            inst.utility, inst.sample.scaled(3), inst.costs, inst.alphabet
        )
        s1 = scenario_adaptive_greedy(inst)
        s2 = scenario_adaptive_greedy(scaled)
        for a in enumerate_realizations(inst.alphabet, inst.n):
            b = empty_partial(inst.n)
            while True:
                i1, i2 = s1.next_item(b), s2.next_item(b)
                assert i1 == i2
                if i1 is None:
                    break
                from scencover.core import extend

                b = extend(b, i1, a[i1])


def test_zero_mass_branch_uses_index_order():
    # a branch off every sample row must still finish; the fallback queries
    # remaining items in ascending order
    g = KOfNUtility(3, 3)
    sample = WeightedSample(((("1", "1", "1"), 1),))
    inst = ScenarioInstance(g, sample, unit_costs(3), BINARY)
    strategy = scenario_adaptive_greedy(inst)
    tree = materialize(strategy, BINARY, 3)
    assert validate_tree(tree, inst).status == "ok"


def test_zero_mass_keeps_first_free_item():
    # at zero mass every score is 0 and best_ratio keeps the first item,
    # even though the later free item 2 is five times cheaper
    g = KOfNUtility(3, 2)
    sample = WeightedSample(((("1", "1", "1"), 1),))
    costs = CostVector((Fraction(1), Fraction(5), Fraction(1)))
    strategy = AdaptiveGreedyStrategy(g, sample, costs)
    b = ("0", U, U)
    assert sample.weight_of(b) == 0 and g.value(b) < g.goal
    assert strategy.next_item(b) == 1


def test_wrapper_uses_weight_elimination_goal():
    for _, inst, _ in instance_stream(5, base_seed=700, max_n=3, max_rows=4):
        gw = scenario_weight_utility(inst.utility, inst.sample)
        assert gw.goal == inst.goal * inst.sample.total_weight
