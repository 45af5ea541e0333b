"""Utility functions over partial realizations, combinators, and checkers.

A utility function maps partial realizations to nonnegative integers and is
expected (for a solvable instance) to reach its goal value on every full
realization.  Concrete families are closed-form; only `TableUtility` stores a
raw table (used to build counterexamples).  Evaluations are memoized per
instance, keyed by the partial realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    UNKNOWN,
    PreconditionError,
    StateAlphabet,
    WeightedSample,
    enumerate_partials,
    enumerate_realizations,
    extend,
    free_items,
)


class UtilityFunction:
    """Base class: subclasses implement `_evaluate(b) -> int`."""

    def __init__(self, n: int, goal: int, alphabet: StateAlphabet):
        self.n = n
        self.goal = goal
        self.alphabet = alphabet
        self._cache: dict = {}

    def value(self, b) -> int:
        v = self._cache.get(b)
        if v is None:
            v = self._evaluate(b)
            self._cache[b] = v
        return v

    def _evaluate(self, b) -> int:
        raise NotImplementedError

    def verify_goal_on_full(self) -> bool:
        """Check value(a) == goal on every full realization; refused (by
        `enumerate_realizations`) above MAX_REALIZATIONS of them."""
        return all(self.value(a) == self.goal
                   for a in enumerate_realizations(self.alphabet, self.n))


def marginal(g: UtilityFunction, b, i: int, state: str) -> int:
    """Utility gained by observing `state` for item i starting from b."""
    return g.value(extend(b, i, state)) - g.value(b)


def worst_state(g: UtilityFunction, b, i: int) -> str:
    """State of item i with the smallest gain from b; alphabet order on ties."""
    best = None
    best_gain = None
    for state in g.alphabet:
        gain = marginal(g, b, i, state)
        if best_gain is None or gain < best_gain:
            best, best_gain = state, gain
    return best


class OrUtility(UtilityFunction):
    """Combination reaching its goal when either constituent reaches its own.

    value(b) = Q1*Q2 - (Q1 - g1(b)) * (Q2 - g2(b)), goal Q1*Q2.  Preserves
    monotonicity and submodularity.  For the combined function to reach its
    goal on all full realizations, at least one constituent must reach its
    goal on each of them (caller's responsibility; checkable by enumeration).
    """

    def __init__(self, g1: UtilityFunction, g2: UtilityFunction):
        if g1.n != g2.n or g1.alphabet != g2.alphabet:
            raise PreconditionError("operands differ in dimension or alphabet")
        super().__init__(g1.n, g1.goal * g2.goal, g1.alphabet)
        self.left = g1
        self.right = g2

    def _evaluate(self, b):
        q1, q2 = self.left.goal, self.right.goal
        return q1 * q2 - (q1 - self.left.value(b)) * (q2 - self.right.value(b))


class CountEliminationUtility(UtilityFunction):
    """Number of sample rows ruled out by the observed states; goal m."""

    def __init__(self, sample: WeightedSample, n: int, alphabet: StateAlphabet):
        if not sample.rows:
            raise PreconditionError("sample must be nonempty")
        super().__init__(n, sample.size, alphabet)
        self.sample = sample

    def _evaluate(self, b):
        return self.sample.size - self.sample.count_of(b)


class WeightEliminationUtility(UtilityFunction):
    """Total weight of sample rows ruled out by the observed states; goal W."""

    def __init__(self, sample: WeightedSample, n: int, alphabet: StateAlphabet):
        if not sample.rows:
            raise PreconditionError("sample must be nonempty")
        super().__init__(n, sample.total_weight, alphabet)
        self.sample = sample

    def _evaluate(self, b):
        return self.sample.total_weight - self.sample.weight_of(b)


def scenario_count_utility(g: UtilityFunction, sample: WeightedSample) -> OrUtility:
    """OR of g with the row-count elimination utility; goal Q*m."""
    return OrUtility(g, CountEliminationUtility(sample, g.n, g.alphabet))


def scenario_weight_utility(g: UtilityFunction, sample: WeightedSample) -> OrUtility:
    """OR of g with the weight elimination utility; goal Q*W."""
    return OrUtility(g, WeightEliminationUtility(sample, g.n, g.alphabet))


BINARY = StateAlphabet(("0", "1"))


class KOfNUtility(UtilityFunction):
    """Utility for evaluating the Boolean k-of-n threshold function.

    Over the binary alphabet, the goal k*(n-k+1) is reached exactly when b
    has at least k ones or at least n-k+1 zeros, i.e. when the function's
    value is determined.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise PreconditionError("k must satisfy 1 <= k <= n")
        super().__init__(n, k * (n - k + 1), BINARY)
        self.k = k

    def _evaluate(self, b):
        k, n = self.k, self.n
        ones = min(k, sum(1 for s in b if s == "1"))
        zeros = min(n - k + 1, sum(1 for s in b if s == "0"))
        return k * (n - k + 1) - (n - k + 1 - zeros) * (k - ones)


class CoverageUtility(UtilityFunction):
    """Union coverage of a finite universe; monotone submodular by shape.

    `covers[(i, state)]` is the subset of the universe contributed when item
    i is observed in `state`.  Goal = universe size.  Construction checks
    that every element has an anchor item covering it in all states, which
    is equivalent to reaching the goal on every full realization.
    """

    def __init__(self, covers: dict, universe_size: int, n: int,
                 alphabet: StateAlphabet):
        super().__init__(n, universe_size, alphabet)
        self.universe = frozenset(range(universe_size))
        self.covers = {
            (i, s): frozenset(covers.get((i, s), ()))
            for i in range(n)
            for s in alphabet
        }
        for key, elems in self.covers.items():
            if not elems <= self.universe:
                raise PreconditionError("cover %r leaves the universe" % (key,))
        for u in self.universe:
            if not any(
                all(u in self.covers[(i, s)] for s in alphabet) for i in range(n)
            ):
                raise PreconditionError(
                    "element %d is uncovered under some realization" % u
                )

    def _evaluate(self, b):
        covered = set()
        for i, s in enumerate(b):
            if s != UNKNOWN:
                covered |= self.covers[(i, s)]
        return len(covered)


class TableUtility(UtilityFunction):
    """Utility stored as a raw table; for counterexample construction only."""

    def __init__(self, table: dict, goal: int, n: int, alphabet: StateAlphabet):
        super().__init__(n, goal, alphabet)
        self.table = dict(table)

    def _evaluate(self, b):
        return self.table[b]


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def check_monotone(g: UtilityFunction) -> CheckReport:
    """Exhaustive monotonicity check; witness is (b, i, state) on failure."""
    for b in enumerate_partials(g.alphabet, g.n):
        gb = g.value(b)
        for i in free_items(b):
            for state in g.alphabet:
                if g.value(extend(b, i, state)) < gb:
                    return CheckReport(False, (b, i, state))
    return CheckReport(True)


def check_submodular(g: UtilityFunction) -> CheckReport:
    """Exhaustive diminishing-gains check between each partial realization
    b and its one-item extensions b' = b+(j,t).

    This is the check over all pairs b1 < b2: setting the items of b2 that
    b1 leaves free one at a time joins them by a chain of one-item
    extensions, every item free in b2 free throughout, so the gains of a
    free item i chain down from b1 to b2.  Witness is (b, b', i, state) with
    the gain at b' strictly larger than at b.
    """
    value = g.value
    states = g.alphabet.states
    for b in enumerate_partials(g.alphabet, g.n):
        frees = free_items(b)
        vb = value(b)
        gains = {(i, s): value(extend(b, i, s)) - vb
                 for i in frees for s in states}
        for j in frees:
            for t in states:
                b2 = extend(b, j, t)
                v2 = value(b2)
                for (i, s), gain in gains.items():
                    if i != j and gain < value(extend(b2, i, s)) - v2:
                        return CheckReport(False, (b, b2, i, s))
    return CheckReport(True)


def expected_marginal(g: UtilityFunction, sample: WeightedSample, b, i: int):
    """Exact conditional expected gain of querying item i from b.

    The expectation is over the state of item i under the sample
    distribution conditioned on b.  Undefined (None) when no sample row is
    consistent with b.
    """
    wb = sample.weight_of(b)
    if wb == 0:
        return None
    num = 0
    for state in g.alphabet:
        b_ext = extend(b, i, state)
        num += sample.weight_of(b_ext) * (g.value(b_ext) - g.value(b))
    return Fraction(num, wb)


def check_adaptive_submodular(g: UtilityFunction, sample: WeightedSample) -> CheckReport:
    """Exhaustive adaptive-submodularity check w.r.t. the sample distribution,
    between each partial realization b and its one-item extensions b'.

    A conditional expectation is undefined at zero consistent weight, so
    pairs with W(b') = 0 (and hence those with W(b) = 0) are skipped.  This
    is the check over all pairs b1 < b2 with W(b2) > 0: they are joined by a
    chain of one-item extensions, each free item of b2 free throughout, and
    every state on the chain extends to b2, so it carries weight >= W(b2) > 0
    and no step of the chain is skipped.  Witness is (b, b', i) on failure.
    """
    weight_of = sample.weight_of
    states = g.alphabet.states
    for b in enumerate_partials(g.alphabet, g.n):
        if weight_of(b) == 0:
            continue
        frees = free_items(b)
        gains = {i: expected_marginal(g, sample, b, i) for i in frees}
        for j in frees:
            for t in states:
                b2 = extend(b, j, t)
                if weight_of(b2) == 0:
                    continue
                for i, gain in gains.items():
                    if i != j and gain < expected_marginal(g, sample, b2, i):
                        return CheckReport(False, (b, b2, i))
    return CheckReport(True)


#: Progress floor used by the backbone analysis: min(ratio, 1/9).
PROGRESS_FLOOR = Fraction(1, 9)


@dataclass(frozen=True)
class ProgressReport:
    """Minimum fraction of the remaining distance-to-goal gained by any
    non-worst state observation, with the attaining witness."""

    ratio: Fraction
    witness: tuple  # (b, i, state)

    @property
    def floor(self) -> Fraction:
        """min(ratio, 1/9): the per-step progress constant of the analysis."""
        return min(self.ratio, PROGRESS_FLOOR)


def min_progress_ratio(g: UtilityFunction) -> ProgressReport:
    """Minimize gain/(goal - value) over b, free i, and non-worst states.

    The worst state of (b, i) is the first of least gain in alphabet order,
    as in `worst_state`; each state's gain is computed once.  Ratios are
    compared as integer cross-products (both denominators are positive),
    the first minimizer in enumeration order winning ties, and the one
    `Fraction` is made at the end.
    """
    goal = g.goal
    value = g.value
    states = g.alphabet.states
    best_num = best_den = witness = None
    for b in enumerate_partials(g.alphabet, g.n):
        gb = value(b)
        if gb >= goal:
            continue
        remaining = goal - gb
        for i in free_items(b):
            head, tail = b[:i], b[i + 1:]
            gains = [value(head + (s,) + tail) - gb for s in states]
            worst = gains.index(min(gains))
            for k, gain in enumerate(gains):
                if k != worst and (best_num is None
                                   or gain * best_den < best_num * remaining):
                    best_num, best_den = gain, remaining
                    witness = (b, i, states[k])
    if witness is None:
        raise PreconditionError("no valid (b, i, state) triple to minimize over")
    return ProgressReport(Fraction(best_num, best_den), witness)
