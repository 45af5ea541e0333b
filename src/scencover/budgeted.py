"""Budget-constrained greedy maximization of a monotone submodular set
function, and the budget search used by the tree builder.

The greedy routine follows the classic scheme: repeatedly add the item with
the best marginal-gain-to-cost ratio among items individually affordable
within the budget, allow the budget to be overshot by the last pick, then
return whichever of {last item} / {everything but the last item} is better.
Its value is guaranteed to be at least alpha = 1 - e^(-chi) times the
optimum, where chi solves e^chi = 2 - chi.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .core import CostVector, PreconditionError

SetFunction = Callable[[frozenset], "int | Fraction"]

#: Residual tolerance for the root of e^chi = 2 - chi.
CHI_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GreedyConstants:
    chi: Fraction
    alpha: Fraction


def solve_chi() -> GreedyConstants:
    """Bisection root of e^x + x - 2 on [0, 1]; alpha = 1 - e^(-chi).

    Both constants are returned as exact binary fractions of the float
    results, so downstream comparisons stay rational and deterministic.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > CHI_TOLERANCE / 4:
        mid = (lo + hi) / 2
        if math.exp(mid) + mid - 2 < 0:
            lo = mid
        else:
            hi = mid
    chi = (lo + hi) / 2
    return GreedyConstants(Fraction(chi), Fraction(1 - math.exp(-chi)))


GREEDY_CONSTANTS = solve_chi()
ALPHA = GREEDY_CONSTANTS.alpha


def best_ratio(items: Iterable[int], gain: Callable[[int], "int | Fraction"],
               costs: CostVector):
    """The item of highest gain per unit cost, or None if there is none.

    Every greedy choice in the package goes through here, so this function
    owns the tie-break: ratios are compared as exact cross-products
    gain(i)*units[j] > gain(j)*units[i] over the integer cost units
    (`CostVector.units`), which order every pair as the `Fraction` costs
    do, and the strict > keeps the first maximizer in `items` order (the
    lowest index when `items` is sorted).
    """
    units = costs.units
    best = best_gain = None
    for i in items:
        g = gain(i)
        if best is None or g * units[best] > best_gain * units[i]:
            best, best_gain = i, g
    return best


def wolsey_greedy(items: Iterable[int], f: SetFunction, costs: CostVector,
                  budget: Fraction) -> frozenset:
    """Greedy budgeted maximization with last-step overshoot.

    Picks the best-ratio item among those with cost <= budget until the total
    spent exceeds the budget or candidates run out, then returns the better
    of {last item} and the picked set minus the last item.  Ties break on the
    lowest item index.  Returns the empty set if nothing is affordable.

    Costs are compared in integer units: for an integer s of units,
    s <= budget*L and s > budget*L hold exactly when they hold against
    floor(budget*L), with L = `costs.scale`.
    """
    units = costs.units
    cap = math.floor(Fraction(budget) * costs.scale)
    eligible = sorted(i for i in items if units[i] <= cap)
    if not eligible:
        return frozenset()
    chosen: list[int] = []
    spent = 0
    current = frozenset()
    base = f(current)
    while True:
        best = best_ratio(eligible, lambda i: f(current | {i}) - base, costs)
        chosen.append(best)
        eligible.remove(best)
        spent += units[best]
        current = current | {best}
        base = f(current)
        if spent > cap or not eligible:
            break
    last = chosen[-1]
    rest = current - {last}
    if f(frozenset({last})) >= f(rest):
        return frozenset({last})
    return rest


GRID_BITS = 20


class Grid(Sequence):
    """The points k*step for k in range(size), each made when indexed."""

    def __init__(self, step: Fraction, size: int):
        self.step, self.size = step, size

    def __len__(self):
        return self.size

    def __getitem__(self, k):
        return range(self.size)[k] * self.step


def budget_candidates(items, costs: CostVector):
    """Finite candidate budgets, in units of 1/`costs.scale` (candidate k
    is the budget `Fraction(k, costs.scale)`): achieved greedy value is
    piecewise constant in the budget, changing only at subset sums of the
    item costs.

    Up to 20 items the candidates are the subset sums of `costs.units`,
    sorted ints.  For more than 20 items the subset-sum set is replaced by
    a dyadic grid over [0, total units], refined to 2^-GRID_BITS of the
    total; it is a `Grid`, whose points are made only when indexed.
    """
    items = list(items)
    units = costs.units
    if len(items) <= 20:
        sums = {0}
        for i in items:
            c = units[i]
            sums |= {s + c for s in sums}
        return sorted(sums)
    total = sum(units[i] for i in items)
    return Grid(Fraction(total, 1 << GRID_BITS), (1 << GRID_BITS) + 1)


def find_budget(items: Iterable[int], f: SetFunction,
                costs: CostVector) -> Fraction:
    """A candidate budget at which the greedy set reaches an alpha fraction
    of f over all items, found by bisection over `budget_candidates`.

    The greedy value need not be monotone in the budget, so this is not
    always the smallest such candidate.  What the bisection guarantees: the
    returned budget is feasible, and the candidate just below it (if any)
    is not.  Candidates stay in integer units during the search, each probe
    runs `wolsey_greedy` at the budget `Fraction(k, costs.scale)`, and that
    `Fraction` is returned.
    """
    items = sorted(items)
    full_value = f(frozenset(items))
    if full_value <= 0:
        raise PreconditionError("set function must be positive on all items")
    target_num = ALPHA * full_value
    scale = costs.scale

    def feasible(k):
        budget = Fraction(k, scale)
        return f(wolsey_greedy(items, f, costs, budget)) >= target_num

    candidates = budget_candidates(items, costs)
    if not feasible(candidates[-1]):
        raise PreconditionError("no budget up to the total cost suffices")
    lo, hi = 0, len(candidates) - 1  # invariant: hi is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(candidates[hi], scale)
