"""Discrete min-sum machinery: timed schedules, truncation, the exact
schedule-cost integral, and the greedy scheduler.

A schedule is a finite sequence of (item, time) pairs.  Only a pair carrying
an item's full cost earns credit toward the job, so the cost integrand is
piecewise constant between prefix-sum breakpoints and the integral is a
finite rational sum, never numeric quadrature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import CostVector, OracleBudgetError, PreconditionError
from .budgeted import GreedyOrder, SetFunction

Schedule = tuple  # of (item, Fraction time) pairs

#: Most items whose n! orderings `item_orders` enumerates.
MAX_SCHEDULE_ITEMS = 8


def item_orders(items):
    """All orderings of the items; refused (`OracleBudgetError`) above
    MAX_SCHEDULE_ITEMS items, before enumerating."""
    if len(items) > MAX_SCHEDULE_ITEMS:
        raise OracleBudgetError("%d items exceed the permutation budget of %d"
                                % (len(items), MAX_SCHEDULE_ITEMS))
    return itertools.permutations(items)


def make_schedule(pairs) -> Schedule:
    out = []
    for i, t in pairs:
        t = Fraction(t)
        if t < 0:
            raise PreconditionError("times must be nonnegative")
        out.append((i, t))
    return tuple(out)


def full_cost_schedule(items, costs: CostVector) -> Schedule:
    """Schedule processing the given items in order, each at its full cost."""
    return tuple((i, costs[i]) for i in items)


def length(schedule: Schedule) -> Fraction:
    """Total time of the schedule."""
    return sum((t for _, t in schedule), Fraction(0))


def truncate(schedule: Schedule, t) -> Schedule:
    """Prefix of the schedule of total time t (identity when t >= length)."""
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("truncation time must be nonnegative")
    if not schedule or t >= length(schedule):
        return schedule
    prefix = Fraction(0)
    k = 0
    for _, tau in schedule:
        if prefix + tau < t:
            prefix += tau
            k += 1
        else:
            break
    return schedule[:k] + ((schedule[k][0], t - prefix),)


@dataclass(frozen=True)
class JobFunction:
    """A set function read through schedules: a pair earns credit only when
    its time equals the item's full cost.  Values are scaled by `scale`
    (defaults to the value on the whole ground set) so a finished job is 1.
    """

    base: SetFunction
    costs: CostVector
    scale: Fraction

    def completed(self, schedule: Schedule) -> frozenset:
        return frozenset(i for i, t in schedule if t == self.costs[i])

    def value(self, schedule: Schedule) -> Fraction:
        return Fraction(self.base(self.completed(schedule))) / self.scale


def make_job(f: SetFunction, costs: CostVector, items=None,
             scale=None) -> JobFunction:
    if scale is None:
        if items is None:
            items = range(len(costs))
        scale = Fraction(f(frozenset(items)))
    if scale <= 0:
        raise PreconditionError("job scale must be positive")
    return JobFunction(f, costs, Fraction(scale))


def schedule_cost(job: JobFunction, schedule: Schedule) -> Fraction:
    """Integral over [0, length] of (1 - job value of the truncated prefix).

    The integrand is constant on each inter-breakpoint interval, where the
    last pair is only partially processed and earns no credit, so the
    integral reduces to a sum over pairs.
    """
    total = Fraction(0)
    done: set = set()
    for i, tau in schedule:
        total += tau * (1 - Fraction(job.base(frozenset(done))) / job.scale)
        if tau == job.costs[i]:
            done.add(i)
    return total


def standard_greedy(items, f: SetFunction, costs: CostVector) -> Schedule:
    """Append full-cost pairs by best gain per unit time until the job is
    done: the picks of the greedy order (`GreedyOrder`) of all the items.

    Ties break on the lowest item index.  Requires f positive on all items.
    """
    items = sorted(items)
    full = f(frozenset(items))
    if full <= 0:
        raise PreconditionError("set function must be positive on all items")
    order = GreedyOrder(items, f, costs)
    while order.values[-1] < full:
        order.pick()
    return full_cost_schedule(order.picks, costs)


def greedy_prefix(schedule: Schedule, j: int) -> Schedule:
    """First j-1 pairs of the schedule (the analysis' 1-based convention)."""
    return schedule[: j - 1]


def budget_cut_index(schedule: Schedule, budget: Fraction) -> int:
    """Largest j such that the first j-1 pairs together take time < budget."""
    budget = Fraction(budget)
    d = 1
    while d < len(schedule) + 1 and length(greedy_prefix(schedule, d + 1)) < budget:
        d += 1
    return d


@dataclass(frozen=True)
class TruncatedBoundsReport:
    greedy: Schedule
    cut_index: int
    worst_ratio_cut: Fraction | None
    worst_ratio_next: Fraction | None
    holds_factor4: bool
    holds_factor8: bool


def check_truncated_bounds(items, f: SetFunction, costs: CostVector,
                           budget) -> TruncatedBoundsReport:
    """Check the budget-truncated greedy guarantees against every cover
    schedule (all item permutations at full costs).  Refused by
    `item_orders` above MAX_SCHEDULE_ITEMS items, before any work.

    With d the last greedy step starting strictly before the budget, the
    greedy prefixes of d-1 and d pairs must cost at most 4 resp. 8 times any
    cover schedule truncated at the budget.
    """
    budget = Fraction(budget)
    items = sorted(items)
    orders = item_orders(items)
    job = make_job(f, costs, items)
    greedy = standard_greedy(items, f, costs)
    if length(greedy) < budget:
        raise PreconditionError("budget exceeds the greedy schedule length")
    d = budget_cut_index(greedy, budget)
    cost_d = schedule_cost(job, greedy_prefix(greedy, d))
    cost_d1 = schedule_cost(job, greedy_prefix(greedy, d + 1))

    worst4 = worst8 = None
    holds4 = holds8 = True
    for perm in orders:
        cover = full_cost_schedule(perm, costs)
        ref = schedule_cost(job, truncate(cover, budget))
        if ref == 0:
            if cost_d > 0:
                holds4 = False
            if cost_d1 > 0:
                holds8 = False
            continue
        r4 = cost_d / ref
        r8 = cost_d1 / ref
        if worst4 is None or r4 > worst4:
            worst4 = r4
        if worst8 is None or r8 > worst8:
            worst8 = r8
        if r4 > 4:
            holds4 = False
        if r8 > 8:
            holds8 = False
    return TruncatedBoundsReport(greedy, d, worst4, worst8, holds4, holds8)

