"""Budget-constrained greedy maximization of a monotone submodular set
function, and the budget search used by the tree builder.

The greedy routine follows the classic scheme: repeatedly add the item with
the best marginal-gain-to-cost ratio among items individually affordable
within the budget, allow the budget to be overshot by the last pick, then
return whichever of {last item} / {everything but the last item} is better.
Its value is guaranteed to be at least alpha = 1 - e^(-chi) times the
optimum, where chi solves e^chi = 2 - chi.

The greedy only ever asks for the value of the picked set plus one item, so
it reads its set function incrementally (`IncrementalFunction`): from the
state of the picked set, one `add` per candidate.  A plain function of
frozensets is read through `incremental`, whose state is the set itself.

Two shortcuts skip rankings whose result is already known, and change no
pick.  Each (state, item) step is made once per function: a round's gains
are kept on the function (`IncrementalFunction.rounds`), so the probes of
one budget search share them, and so does an order of the function rooted
at a later state (`IncrementalFunction.rooted_at`).  And an order over a
function that certifies itself monotone (`monotone`) saturates: once the
picked set P has the value of the whole eligible set E, every gain is 0
(f(P) <= f(P+i) <= f(E) = f(P)), so the first of the equal gains, the
next remaining item, is every later pick.  An order reads f(E) only where
it is already known (`GreedyOrder.top`).

The budget search (`find_budget`) walks the greedy's breakpoints upward, the
caps where its set can change, to the least feasible one.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Callable, Iterable

from .core import CostVector, PreconditionError

SetFunction = Callable[[frozenset], "int | Fraction"]


class IncrementalFunction:
    """A set function read one added item at a time.

    `root()` is the state of the empty set, `add(state, i)` the state of
    that state's set plus item i (not in it), and `value(state)` the set's
    value; the state of a set must not depend on the order its items were
    added in, and `add` must depend only on its arguments.  Calling the
    function on a frozenset folds `add` over it, so it is also a
    `SetFunction`.  `known` maps frozensets to their values: calls read and
    fill it, and `wolsey_greedy` adds each set it returns.

    `rounds` maps a state to {item: (state, value)} of the one-item
    extensions `successor` has made, so each is made once; a caller that
    has made some may seed them, as it may fill `known`.  `monotone`
    certifies that adding an item never lowers the value; False claims
    nothing.
    """

    __slots__ = ("_root", "add", "value", "known", "monotone", "rounds")

    def __init__(self, root, add: Callable, value: Callable,
                 monotone: bool = False):
        self._root, self.add, self.value = root, add, value
        self.monotone = monotone
        self.known: dict = {}
        self.rounds: dict = {}

    def root(self):
        return self._root

    def rooted_at(self, state) -> "IncrementalFunction":
        """The function of the sets added to `state`'s set: same `add`,
        `value`, certificate and `rounds`, a fresh `known`."""
        rooted = IncrementalFunction(state, self.add, self.value, self.monotone)
        rooted.rounds = self.rounds
        return rooted

    def successor(self, state, i):
        """(state, value) of state's set plus item i, from `rounds`."""
        extensions = self.rounds.get(state)
        if extensions is None:
            extensions = self.rounds[state] = {}
        step = extensions.get(i)
        if step is None:
            after = self.add(state, i)
            step = extensions[i] = after, self.value(after)
        return step

    def __call__(self, r: frozenset):
        v = self.known.get(r)
        if v is None:
            state = self._root
            for i in r:
                state = self.add(state, i)
            v = self.known[r] = self.value(state)
        return v


def incremental(f) -> IncrementalFunction:
    """f itself if it is incremental, else the plain set function f read
    incrementally: the state is the frozenset, `add` a union."""
    if isinstance(f, IncrementalFunction):
        return f
    return IncrementalFunction(frozenset(), lambda r, i: r | {i}, f)


#: alpha = 1 - e^(-chi), e^chi = 2 - chi, as a binary fraction 1.6e-14 below
#: the true value (tests/test_budgeted.py proves the side with exact bounds).
ALPHA = Fraction(402846193967327, 1 << 50)


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


class GreedyOrder:
    """Wolsey's greedy picks over one eligible set, made when first needed.

    Every greedy loop of the package ranks through `pick`: the best-ratio
    item (`best_ratio`) among the items not yet picked, by gain
    f(picked + {i}) - f(picked), read from the picked set's state, one step
    per item, from `f.rounds` where an earlier round made it.  The picks
    depend only on the eligible set, `f` and `costs`, never on the budget,
    so the picks at any budget are a prefix of this one order.  `values[k]`
    is the f value of the first k picks and `spent[k]` their cost units.

    For a monotone f whose `known` holds the eligible set, `top` is its
    value f(eligible set); otherwise None.  `find_budget`'s order of all
    items finds it there; folding any other set took more steps than its
    saturation saved.  Once the picks reach `top` the order is saturated:
    every later pick is the next remaining item, at value `top`, and
    `prefix` makes them all at once, without a round.
    """

    def __init__(self, eligible, f, costs: CostVector):
        self.f, self.costs = incremental(f), costs
        self.remaining = list(eligible)
        self.picks: list[int] = []
        self.state = self.f.root()
        self.values = [self.f.value(self.state)]
        self.spent = [0]
        self.top = (self.f.known.get(frozenset(self.remaining))
                    if self.f.monotone else None)

    def pick(self) -> int:
        """Make the next pick and return it; some item must be left."""
        successor = self.f.successor
        state, base = self.state, self.values[-1]

        def gain(i):
            return successor(state, i)[1] - base

        best = best_ratio(self.remaining, gain, self.costs)
        self.remaining.remove(best)
        self.picks.append(best)
        self.state, v = successor(state, best)
        self.values.append(v)
        self.spent.append(self.spent[-1] + self.costs.units[best])
        return best

    def _saturate(self) -> None:
        """Pick every remaining item in order, each at value `top`."""
        units, spent = self.costs.units, self.spent
        for i in self.remaining:
            spent.append(spent[-1] + units[i])
        self.values += [self.top] * len(self.remaining)
        self.picks += self.remaining
        self.remaining = []

    def prefix(self, cap: int) -> int:
        """The number of picks the greedy makes at `cap` units: it picks
        until the spent units exceed `cap` or no item is left.  A saturated
        order takes every item left in one step."""
        spent = self.spent
        while spent[-1] <= cap and self.remaining:
            if self.values[-1] == self.top:
                self._saturate()
            else:
                self.pick()
        return min(bisect.bisect_right(spent, cap), len(self.picks))


def wolsey_greedy(items: Iterable[int], f, costs: CostVector,
                  budget: Fraction, orders: dict | None = None) -> frozenset:
    """Greedy budgeted maximization with last-step overshoot.

    Picks the best-ratio item among those with cost <= budget until the total
    spent exceeds the budget or candidates run out, then returns the better
    of {last item} and the picked set minus the last item.  Ties break on the
    lowest item index.  Returns the empty set if nothing is affordable.
    `f` is an `IncrementalFunction` or a plain `SetFunction`.

    The picks depend on the budget only through the eligible set and where
    they stop, so they are a prefix of the one `GreedyOrder` of that set.
    `orders`, if given, maps eligible tuples to their orders for one `f` and
    `costs` and is filled as orders are made; it changes no result, and a
    call without it makes a fresh order.

    Costs are compared in integer units: for an integer s of units,
    s <= budget*L and s > budget*L hold exactly when they hold against
    floor(budget*L), with L = `costs.scale`, taken in integers from the
    numerator and denominator of `budget` (a `Fraction` or an int).
    """
    f = incremental(f)
    units = costs.units
    cap = budget.numerator * costs.scale // budget.denominator
    eligible = tuple(sorted(i for i in items if units[i] <= cap))
    if not eligible:
        return frozenset()
    if orders is None:
        orders = {}
    order = orders.get(eligible)
    if order is None:
        order = orders[eligible] = GreedyOrder(eligible, f, costs)
    k = order.prefix(cap)
    last = order.picks[k - 1]
    # the order's root round stepped {last} unless it saturated at the root
    single = order.f.successor(order.f.root(), last)[1]
    if single >= order.values[k - 1]:
        r, value = frozenset({last}), single
    else:
        r, value = frozenset(order.picks[:k - 1]), order.values[k - 1]
    f.known[r] = value
    return r


#: Above 20 items a budget is a multiple of 2^-GRID_BITS of the total cost.
GRID_BITS = 20


def budget_candidates(items, costs: CostVector) -> list[int]:
    """The sorted distinct unit costs of `items` (`costs.units`), the caps
    at which the greedy's eligible set grows."""
    units = costs.units
    return sorted({units[i] for i in items})


def find_budget(items: Iterable[int], f, costs: CostVector) -> Fraction:
    """The least budget at which the greedy set reaches an alpha fraction of
    f over all items: value v with v·den(ALPHA) >= num(ALPHA)·f(all items),
    in integers for an integer f.

    `wolsey_greedy` reads a budget only through its cap, floor(budget·L)
    units (L = `costs.scale`), and its set changes only at a breakpoint: a
    unit cost (`budget_candidates`), where the eligible set grows, or the
    next `spent` entry of that set's order, where its picks stop one later.
    The search probes cap 0, then each next breakpoint, and stops at the
    first feasible cap C*, a subset sum of the costs.  It returns C*/L up to
    20 items; above, C* rounded up to a multiple of total/2^GRID_BITS units,
    whose cap is C* while the total is below 2^GRID_BITS units.

    Every cap below C* is infeasible, so for a monotone submodular f, on
    which the greedy gets alpha of the best set within its budget, no set
    costing less than C*/L reaches f(all items), and the next smaller subset
    sum is infeasible.  Whether Cicalese, Laber & Saettler's analysis of the
    backbone needs more is not verified.

    The probes share one dict of greedy orders and, through them,
    `f.rounds`, so no (state, item) is stepped twice in one search; neither
    changes a probe's result.  `f` is an `IncrementalFunction` or a plain
    `SetFunction`; probes value their sets from `f.known`.
    """
    f = incremental(f)
    items = sorted(items)
    full_value = f(frozenset(items))
    if full_value <= 0:
        raise PreconditionError("set function must be positive on all items")
    target, den = ALPHA.numerator * full_value, ALPHA.denominator
    units, scale = costs.units, costs.scale
    growth = budget_candidates(items, costs)
    orders: dict = {}
    cap = 0
    while (f(wolsey_greedy(items, f, costs, Fraction(cap, scale), orders))
           * den < target):
        j = bisect.bisect_right(growth, cap)
        breaks = growth[j:j + 1]
        eligible = tuple(i for i in items if units[i] <= cap)
        if eligible:  # wolsey_greedy's key; from spent[k] on it picks k + 1
            order = orders[eligible]
            k = order.prefix(cap)
            if k < len(eligible):
                breaks.append(order.spent[k])
        if not breaks:
            raise PreconditionError("no budget up to the total cost suffices")
        cap = min(breaks)
    if len(items) <= 20:
        return Fraction(cap, scale)
    total = sum(units[i] for i in items)
    steps = -(-(cap << GRID_BITS) // total)
    return Fraction(steps * total, scale << GRID_BITS)
