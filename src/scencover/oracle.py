"""Exhaustive brute-force solvers used as ground truth in tests and audits.

These are deliberately simple and exponential; hard budgets make any attempt
to run them beyond desk scale an explicit refusal instead of a silent stall.
The optimal tree is a policy like every other solver's, expanded by
`core.materialize`.

`optimal_tree` solves its recursion in integers.  With L the cost scale
(`CostVector.scale`) and W(b) the sample weight consistent with a partial
realization b, let U(b) = W(b)·L·OPT(b), where OPT(b) is the least expected
cost of finishing from b.  Multiplying OPT's recursion by W(b)·L gives

    U(b) = min over free i of  units_i·W(b) + sum over states s of U(b+(i,s))

with U(b) = 0 at the goal or at zero mass, so every U(b) is an int and the
optimum is U(root)/(W·L).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    OracleBudgetError,
    PreconditionError,
    ScenarioInstance,
    Strategy,
    SuffixedStrategy,
    empty_partial,
    free_items,
    materialize,
)
from .minsum import full_cost_schedule, item_orders, make_job, schedule_cost


#: The exhaustive tree recursion's budget: more items, states or sample
#: rows than these are refused before any work.
MAX_ORACLE_ITEMS, MAX_ORACLE_STATES, MAX_ORACLE_ROWS = 6, 3, 8


def optimal_tree(instance: ScenarioInstance):
    """Exact minimum expected cost over all valid strategies.

    Recursion over partial realizations in the integer units U(b) of the
    module docstring: at each reachable information state with sample mass
    the policy picks the item minimizing units_i·W(b) plus the children's
    U, the lowest index on ties, and (U(b), that item) is memoized per
    state.  While one item sums its children, it stops as soon as the
    partial total reaches the best total found so far: every term is >= 0,
    so the item can no longer be strictly better, and a tie keeps the
    earlier item anyway.  The minimum and its lowest-index minimizer are
    therefore exactly those of the full sums.  Branches no sample row
    reaches contribute nothing to the expectation; there the policy stops
    and `SuffixedStrategy` completes them in fixed item order.  The tree is
    `materialize` of that policy.  Returns (tree, expected cost), the cost
    as the `Fraction` U(root)/(W·L).
    """
    shape = (instance.n, len(instance.alphabet), instance.sample.size)
    limits = (MAX_ORACLE_ITEMS, MAX_ORACLE_STATES, MAX_ORACLE_ROWS)
    if any(size > limit for size, limit in zip(shape, limits)):
        raise OracleBudgetError(
            "instance (n=%d, states=%d, rows=%d) exceeds the oracle budget of "
            "%d items, %d states and %d rows" % (shape + limits))
    if not instance.sample.rows:
        raise PreconditionError("optimal tree undefined for an empty sample")
    g = instance.utility
    goal = g.goal
    value = g.value
    sample = instance.sample
    step_mask, mass = sample.step_mask, sample.mass
    units = instance.costs.units
    states = instance.alphabet.states
    memo: dict = {}

    def solve(b, mask):
        """(U(b), the item the policy queries at b or None); mask is b's
        row mask, each child's one `step_mask` of it."""
        entry = memo.get(b)
        if entry is not None:
            return entry
        if not mask or value(b) == goal:
            entry = memo[b] = (0, None)
            return entry
        wb = mass(mask)
        best = best_item = None
        for i in free_items(b):
            total = units[i] * wb
            if best is not None and total >= best:
                continue
            head, tail = b[:i], b[i + 1:]
            for s in states:
                child_mask = step_mask(mask, i, s)
                if child_mask:
                    total += solve(head + (s,) + tail, child_mask)[0]
                    if best is not None and total >= best:
                        break
            else:
                best, best_item = total, i
        if best_item is None:
            raise PreconditionError("goal unreachable: no free items at %r" % (b,))
        entry = memo[b] = (best, best_item)
        return entry

    class OptimalStrategy(Strategy):
        def next_item(self, b):
            return (memo.get(b) or solve(b, sample.mask_of(b)))[1]

    total_weight = sample.total_weight
    optimum, _ = solve(empty_partial(instance.n), sample.all_rows)
    tree = materialize(SuffixedStrategy(OptimalStrategy(), g),
                       instance.alphabet, instance.n)
    return tree, Fraction(optimum, total_weight * instance.costs.scale)


#: Budget of `optimal_budgeted`: most items whose 2^n subsets it walks.
MAX_SUBSET_ITEMS = 20


def optimal_budgeted(items, f, costs, budget):
    """Exhaustive max of f over subsets of items with total cost <= budget;
    refused (`OracleBudgetError`) above MAX_SUBSET_ITEMS items, before any
    call of f.  Costs are summed in integer units (`costs.units`) against
    floor(budget·L), L = `costs.scale`, which no integer sum tells apart
    from budget·L: the cap rule of `budgeted.wolsey_greedy`."""
    items = sorted(items)
    if len(items) > MAX_SUBSET_ITEMS:
        raise OracleBudgetError("%d items exceed the exhaustive subset budget "
                                "of %d" % (len(items), MAX_SUBSET_ITEMS))
    budget = Fraction(budget)
    cap = budget.numerator * costs.scale // budget.denominator
    units = costs.units
    best_set = frozenset()
    best_value = f(frozenset())
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(units[i] for i in combo) > cap:
                continue
            value = f(frozenset(combo))
            if value > best_value:
                best_set, best_value = frozenset(combo), value
    return best_set, best_value


def optimal_schedule(items, f, costs):
    """Minimum schedule cost over all orderings of full-cost pairs."""
    items = sorted(items)
    orders = item_orders(items)
    if f(frozenset()) == f(frozenset(items)):
        return (), Fraction(0)
    job = make_job(f, costs, items)
    best = None
    best_schedule = None
    for perm in orders:
        schedule = full_cost_schedule(perm, costs)
        cost = schedule_cost(job, schedule)
        if best is None or cost < best:
            best, best_schedule = cost, schedule
    return best_schedule, best
