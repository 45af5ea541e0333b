"""Expected-gain-per-cost adaptive policy and its scenario wrapper, both
`core.Strategy` policies that `core.materialize` expands into trees.

At each step the policy queries the item with the best exact conditional
expected utility gain per unit cost under the sample distribution.  The
scenario wrapper first combines the utility with weight elimination, which
makes the combination adaptive submodular with respect to the sample
distribution regardless of the original utility.
"""

from __future__ import annotations

from .budgeted import best_ratio
from .core import (
    PreconditionError,
    ScenarioInstance,
    Strategy,
    SuffixedStrategy,
    free_items,
)
from .utility import UtilityFunction, scenario_weight_utility


class AdaptiveGreedyStrategy(Strategy):
    """Stateless greedy policy: maximize conditional expected gain / cost.

    Each call derives b's utility state and row mask once, then scores each
    (item, state) with one `step` and one `step_mask`.

    On partial realizations with no consistent sample mass the conditional
    expectation is undefined.  There every score is 0, so `best_ratio`
    keeps its first item: the policy falls through to ascending index order
    until the goal is reached, with no branch of its own.  The
    approximation guarantee needs the utility to be adaptive submodular
    w.r.t. the sample distribution (not enforced;
    `check_adaptive_submodular` tests it).
    """

    def __init__(self, g: UtilityFunction, sample, costs):
        self.utility = g
        self.sample = sample
        self.costs = costs

    def next_item(self, b):
        g = self.utility
        state = g.state_of(b)
        gb = g.level(state)
        if gb == g.goal:
            return None
        frees = free_items(b)
        if not frees:
            raise PreconditionError("goal unreachable: no items left")
        mask = self.sample.mask_of(b)
        step, level = g.step, g.level
        step_mask, mass = self.sample.step_mask, self.sample.mass
        states = g.alphabet.states

        def score(i):  # unnormalized: sum over states of weight * gain
            total = 0
            for s in states:
                w = mass(step_mask(mask, i, s))
                if w:
                    total += w * (level(step(state, i, s)) - gb)
            return total

        return best_ratio(frees, score, self.costs)


def scenario_adaptive_greedy(instance: ScenarioInstance) -> SuffixedStrategy:
    """Greedy policy on the weight-elimination combination, then a fixed
    index-order suffix wherever the original goal is still unmet."""
    combined = scenario_weight_utility(instance.utility, instance.sample)
    base = AdaptiveGreedyStrategy(combined, instance.sample, instance.costs)
    return SuffixedStrategy(base, instance.utility)
