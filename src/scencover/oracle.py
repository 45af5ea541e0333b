"""Exhaustive brute-force solvers used as ground truth in tests and audits.

These are deliberately simple and exponential; hard budgets make any attempt
to run them beyond desk scale an explicit refusal instead of a silent stall.
The optimal tree is a policy like every other solver's, expanded by
`core.materialize`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    PreconditionError,
    ScenarioInstance,
    ScencoverError,
    Strategy,
    SuffixedStrategy,
    empty_partial,
    extend,
    free_items,
    materialize,
)
from .minsum import full_cost_schedule, make_job, schedule_cost


class OracleBudgetError(ScencoverError):
    """The instance exceeds the oracle's enumeration budget."""


@dataclass(frozen=True)
class OracleLimits:
    max_items: int = 6
    max_states: int = 3
    max_rows: int = 8


DEFAULT_LIMITS = OracleLimits()


def optimal_tree(instance: ScenarioInstance, limits: OracleLimits = DEFAULT_LIMITS):
    """Exact minimum expected cost over all valid strategies.

    Recursion over partial realizations: at each reachable information state
    the policy picks the item minimizing immediate cost plus the weighted
    cost of the consistent subtrees (the lowest index on ties), memoized per
    state.  Branches no sample row reaches contribute nothing to the
    expectation; there the policy stops and `SuffixedStrategy` completes
    them in fixed item order.  The tree is `materialize` of that policy.
    Returns (tree, expected cost).
    """
    if (instance.n > limits.max_items or len(instance.alphabet) > limits.max_states
            or instance.sample.size > limits.max_rows):
        raise OracleBudgetError(
            "instance (n=%d, states=%d, rows=%d) exceeds oracle limits %r"
            % (instance.n, len(instance.alphabet), instance.sample.size, limits)
        )
    if not instance.sample.rows:
        raise PreconditionError("optimal tree undefined for an empty sample")
    g = instance.utility
    costs = instance.costs
    memo: dict = {}

    def item_cost(b, wb, i) -> Fraction:
        """Cost of querying i at b, then continuing optimally."""
        total = costs[i]
        for s in instance.alphabet:
            child = extend(b, i, s)
            wc = instance.sample.weight_of(child)
            if wc:
                total += Fraction(wc, wb) * best_cost(child)
        return total

    def best_cost(b) -> Fraction:
        if g.value(b) == g.goal:
            return Fraction(0)
        wb = instance.sample.weight_of(b)
        if wb == 0:
            return Fraction(0)
        if b in memo:
            return memo[b]
        best = min((item_cost(b, wb, i) for i in free_items(b)), default=None)
        if best is None:
            raise PreconditionError("goal unreachable: no free items at %r" % (b,))
        memo[b] = best
        return best

    class OptimalStrategy(Strategy):
        def next_item(self, b):
            if g.value(b) == g.goal or not (wb := instance.sample.weight_of(b)):
                return None
            # min keeps the first minimizer: ties go to the lowest index
            return min(free_items(b), key=lambda i: item_cost(b, wb, i))

    tree = materialize(SuffixedStrategy(OptimalStrategy(), g),
                       instance.alphabet, instance.n)
    return tree, best_cost(empty_partial(instance.n))


def optimal_budgeted(items, f, costs, budget):
    """Exhaustive max of f over subsets of items with total cost <= budget."""
    items = sorted(items)
    if len(items) > 20:
        raise OracleBudgetError("too many items for exhaustive subsets")
    budget = Fraction(budget)
    best_set = frozenset()
    best_value = f(frozenset())
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum((costs[i] for i in combo), Fraction(0)) > budget:
                continue
            value = f(frozenset(combo))
            if value > best_value:
                best_set, best_value = frozenset(combo), value
    return best_set, best_value


def optimal_schedule(items, f, costs):
    """Minimum schedule cost over all orderings of full-cost pairs."""
    items = sorted(items)
    if len(items) > 8:
        raise OracleBudgetError("too many items for permutation enumeration")
    if f(frozenset()) == f(frozenset(items)):
        return (), Fraction(0)
    job = make_job(f, costs, items)
    best = None
    best_schedule = None
    for perm in itertools.permutations(items):
        schedule = full_cost_schedule(perm, costs)
        cost = schedule_cost(job, schedule)
        if best is None or cost < best:
            best, best_schedule = cost, schedule
    return best_schedule, best
