"""Utility functions over partial realizations, combinators, and checkers.

A utility function maps partial realizations to nonnegative integers and is
expected (for a solvable instance) to reach its goal value on every full
realization.  Concrete families are closed-form; only `TableUtility` stores a
raw table (used to build counterexamples).  Evaluations are memoized per
instance, keyed by the partial realization.

Every utility is read through its states: `root()` is the state of the
empty partial realization, `step(state, i, s)` that of the partial with
item i observed in state s added, `level(state)` its utility and
`state_of(b)` the state of b, so folding `step` over b's observations in
any order reaches `state_of(b)`, and `value(b)` is `level(state_of(b))`
for every utility, memoized by the base class's one `_evaluate`.
Coverage, k-of-n, count and weight elimination and OR carry a small state
(a bitmask, two counts, a row mask, a pair); a table's state, and the
induced utility's, is a partial realization.  Every state is hashable.
The exhaustive passes over all partial realizations (the property checkers
and `min_progress_ratio`) read one table of levels (`level_table`) and
leave the memo alone: an OR's table is combined from its operands' tables,
and any other utility's folds its states column-wise (`partial_table`),
calling `level` once per distinct state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    UNKNOWN,
    PreconditionError,
    StateAlphabet,
    WeightedSample,
    empty_partial,
    enumerate_partials,
    enumerate_realizations,
    extend,
    free_items,
)


class UtilityFunction:
    """Base class.  A subclass gives its states, overriding `root`, `step`,
    `level` and `state_of` together; its value is the one formula
    `level(state_of(b))`.  States must be hashable: `partial_table` calls
    `level` once per distinct state.

    `monotone` certifies, by construction, that observing an item never
    lowers the value.  The base class certifies nothing; a family that is
    monotone by its shape declares True, and the greedy reads the
    certificate to stop ranking once it saturates (`budgeted.GreedyOrder`).
    `check_monotone` is the independent test."""

    monotone = False

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
        """The value of b on a memo miss."""
        return self.level(self.state_of(b))

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
    The state is the pair of the operands' states, and it is certified
    monotone when both operands are.
    """

    def __init__(self, g1: UtilityFunction, g2: UtilityFunction):
        if g1.n != g2.n or g1.alphabet != g2.alphabet:
            raise PreconditionError("operands differ in dimension or alphabet")
        super().__init__(g1.n, g1.goal * g2.goal, g1.alphabet)
        self.left = g1
        self.right = g2
        self.monotone = g1.monotone and g2.monotone
        self._step1, self._step2 = g1.step, g2.step
        self._level1, self._level2 = g1.level, g2.level

    def root(self):
        return self.left.root(), self.right.root()

    def step(self, state, i, s):
        return self._step1(state[0], i, s), self._step2(state[1], i, s)

    def level(self, state):
        return self.goal - ((self.left.goal - self._level1(state[0]))
                            * (self.right.goal - self._level2(state[1])))

    def state_of(self, b):
        return self.left.state_of(b), self.right.state_of(b)


class EliminationUtility(UtilityFunction):
    """Measure of the sample rows ruled out by the observed states: the goal
    is the measure of every row, and the state is the row mask of the rows
    still consistent (`WeightedSample.mask_of`); monotone, since a row
    once ruled out stays out."""

    monotone = True

    def __init__(self, sample: WeightedSample, n: int, alphabet: StateAlphabet,
                 measure):
        if not sample.rows:
            raise PreconditionError("sample must be nonempty")
        super().__init__(n, measure(sample.all_rows), alphabet)
        self.sample = sample
        self.measure = measure
        # the row-mask API is the state API: bound once, called directly
        self.step = sample.step_mask
        self.state_of = sample.mask_of

    def root(self):
        return self.sample.all_rows

    def level(self, mask):
        return self.goal - self.measure(mask)


class CountEliminationUtility(EliminationUtility):
    """Number of sample rows ruled out by the observed states; goal m."""

    def __init__(self, sample: WeightedSample, n: int, alphabet: StateAlphabet):
        super().__init__(sample, n, alphabet, int.bit_count)


class WeightEliminationUtility(EliminationUtility):
    """Total weight of sample rows ruled out by the observed states; goal W."""

    def __init__(self, sample: WeightedSample, n: int, alphabet: StateAlphabet):
        super().__init__(sample, n, alphabet, sample.mass)


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
    value is determined.  The state is the pair (ones, zeros); monotone,
    since both truncated counts only grow.
    """

    monotone = True

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise PreconditionError("k must satisfy 1 <= k <= n")
        super().__init__(n, k * (n - k + 1), BINARY)
        self.k = k

    def root(self):
        return 0, 0

    def step(self, state, i, s):
        ones, zeros = state
        return (ones + 1, zeros) if s == "1" else (ones, zeros + 1)

    def level(self, state):
        k, z = self.k, self.n - self.k + 1
        return k * z - (z - min(z, state[1])) * (k - min(k, state[0]))

    def state_of(self, b):
        return b.count("1"), b.count("0")


class CoverageUtility(UtilityFunction):
    """Union coverage of a finite universe; monotone submodular by shape.

    `covers[(i, state)]` is the subset of the universe contributed when item
    i is observed in `state`.  Goal = universe size.  Construction checks
    that every element has an anchor item covering it in all states, which
    is equivalent to reaching the goal on every full realization.  The
    state is the int bitmask of the covered elements, and a cover is kept
    as its bitmask: `masks[i][state]`.
    """

    monotone = True

    def __init__(self, covers: dict, universe_size: int, n: int,
                 alphabet: StateAlphabet):
        super().__init__(n, universe_size, alphabet)
        universe = (1 << universe_size) - 1
        self.masks = tuple({} for _ in range(n))
        anchored = 0  # elements some item covers in every state
        for i, per_state in enumerate(self.masks):
            common = universe
            for s in alphabet:
                mask = 0
                for u in covers.get((i, s), ()):
                    if u not in range(universe_size):
                        raise PreconditionError("cover %r leaves the universe"
                                                % ((i, s),))
                    mask |= 1 << u
                per_state[s] = mask
                common &= mask
            anchored |= common
        uncovered = universe & ~anchored
        if uncovered:
            raise PreconditionError(
                "element %d is uncovered under some realization"
                % ((uncovered & -uncovered).bit_length() - 1)
            )

    def root(self):
        return 0

    def step(self, state, i, s):
        return state | self.masks[i][s]

    def level(self, state):
        return state.bit_count()

    def state_of(self, b):
        covered = 0
        for per_state, s in zip(self.masks, b):
            if s != UNKNOWN:
                covered |= per_state[s]
        return covered


class TableUtility(UtilityFunction):
    """Utility stored as a raw table over the partial realizations, which
    are its states; for counterexample construction only.  The table must
    list every partial realization, every exhaustive pass reads them all,
    and no value may exceed the goal."""

    def __init__(self, table: dict, goal: int, n: int, alphabet: StateAlphabet):
        super().__init__(n, goal, alphabet)
        self.table = dict(table)
        partials = set(enumerate_partials(alphabet, n))
        listed = len(partials & self.table.keys())
        if listed != len(partials):
            raise PreconditionError("table lists %d of the %d partial realizations"
                                    % (listed, len(partials)))
        for b, v in self.table.items():
            if v > goal:
                raise PreconditionError("table value %d at %r exceeds the goal %d"
                                        % (v, b, goal))
        self.step = extend
        self.level = self.table.__getitem__

    def root(self):
        return empty_partial(self.n)

    def state_of(self, b):
        return b


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def partial_table(alphabet: StateAlphabet, n: int, root, step, finish) -> list:
    """`finish` of the state of every partial realization, in
    `enumerate_partials` order, folded from `root` with one `step` per
    partial realization but the empty one, after `enumerate_partials` has
    checked its budget.

    Entry c is that of the b with code c = sum of d_i·(S+1)^(n-1-i), d_i
    the alphabet index of b[i] and S, the number of states, that of the
    unknown marker.  So with item i free in b, b + (i, states[k]) sits at
    c - (S-k)·(S+1)^(n-1-i).

    The fold runs column-wise: item i's layer is filled one state at a
    time by slice assignment, the state of index k at every (S+1)-th slot
    from k and the unknown marker's (the parent state itself) from S.
    `finish` runs once per distinct state, so the states must be hashable:
    a table over m <= 8 sample rows, say, calls it at most 2^m times.
    """
    enumerate_partials(alphabet, n)
    states = alphabet.states
    width = len(states) + 1
    layer = [root]
    for i in range(n):
        children = [None] * (len(layer) * width)
        for k, s in enumerate(states):
            children[k::width] = [step(x, i, s) for x in layer]
        children[width - 1::width] = layer
        layer = children
    levels = {x: finish(x) for x in set(layer)}
    return list(map(levels.__getitem__, layer))


def level_table(g: UtilityFunction) -> list:
    """value(b) of every partial realization b, in `enumerate_partials`
    order, without the value memo.

    An OR's table is combined entry by entry from its operands' tables
    (recursively, so an OR nested in g_S is combined too), with the formula
    of `OrUtility.level`; its own `step` and `level` are never called.  Any
    other utility's is the `partial_table` of its states and levels.
    """
    if isinstance(g, OrUtility):
        q, q1, q2 = g.goal, g.left.goal, g.right.goal
        return [q - (q1 - v1) * (q2 - v2)
                for v1, v2 in zip(level_table(g.left), level_table(g.right))]
    return partial_table(g.alphabet, g.n, g.root(), g.step, g.level)


def _level_table(g: UtilityFunction) -> tuple[list, list]:
    """g's `level_table`, and offsets[i][k]: how far the code of
    b + (i, states[k]) lies below that of b, for item i free in b."""
    s = len(g.alphabet)
    offsets = [[(s - k) * (s + 1) ** (g.n - 1 - i) for k in range(s)]
               for i in range(g.n)]
    return level_table(g), offsets


def check_monotone(g: UtilityFunction) -> CheckReport:
    """Exhaustive monotonicity check; witness is (b, i, state) on failure."""
    value, offsets = _level_table(g)
    states = g.alphabet.states
    for c, b in enumerate(enumerate_partials(g.alphabet, g.n)):
        vb = value[c]
        for i in free_items(b):
            for state, d in zip(states, offsets[i]):
                if value[c - d] < vb:
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

    The test of (i, s) at b+(j,t), g(b+(i,s)) + g(b+(j,t)) < g(b) +
    g(b+(j,t)+(i,s)), is symmetric in (i, s) and (j, t), so only i > j is
    tested: of the two orders of a failing pair, the loop meets that one
    first, so the witness is the one of the test of every i != j.
    """
    value, offsets = _level_table(g)
    states = g.alphabet.states
    for c, b in enumerate(enumerate_partials(g.alphabet, g.n)):
        frees = free_items(b)
        vb = value[c]
        gains = [(i, s, d, value[c - d] - vb)
                 for i in frees for s, d in zip(states, offsets[i])]
        for m, j in enumerate(frees):
            later = gains[(m + 1) * len(states):]  # the items after j
            for t, dj in zip(states, offsets[j]):
                c2 = c - dj
                v2 = value[c2]
                for i, s, d, gain in later:
                    if gain < value[c2 - d] - v2:
                        return CheckReport(False, (b, extend(b, j, t), i, s))
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
    and no step of the chain is skipped.  The expected gains are compared as
    W(b)·`expected_marginal` by integer cross-products (both weights are
    positive).  Witness is (b, b', i) on failure.
    """
    value, offsets = _level_table(g)
    if not sample.rows:
        return CheckReport(True)  # every partial realization weighs 0
    # the root's mask_of checks that the sample has g's dimension
    weight = partial_table(g.alphabet, g.n, sample.mask_of(empty_partial(g.n)),
                           sample.step_mask, sample.mass)

    def weighted_gain(c, i):
        vb = value[c]
        return sum(weight[c - d] * (value[c - d] - vb) for d in offsets[i])

    for c, b in enumerate(enumerate_partials(g.alphabet, g.n)):
        wb = weight[c]
        if wb == 0:
            continue
        frees = free_items(b)
        gains = [(i, weighted_gain(c, i)) for i in frees]
        for j in frees:
            for t, dj in zip(g.alphabet.states, offsets[j]):
                c2 = c - dj
                w2 = weight[c2]
                if w2 == 0:
                    continue
                for i, gain in gains:
                    if i != j and gain * w2 < weighted_gain(c2, i) * wb:
                        return CheckReport(False, (b, extend(b, j, t), i))
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
    value, offsets = _level_table(g)
    states = g.alphabet.states
    best_num = best_den = witness = None
    for c, b in enumerate(enumerate_partials(g.alphabet, g.n)):
        gb = value[c]
        if gb >= goal:
            continue
        remaining = goal - gb
        for i in free_items(b):
            gains = [value[c - d] - gb for d in offsets[i]]
            worst = gains.index(min(gains))
            for k, gain in enumerate(gains):
                if k != worst and (best_num is None
                                   or gain * best_den < best_num * remaining):
                    best_num, best_den = gain, remaining
                    witness = (b, i, states[k])
    if witness is None:
        raise PreconditionError("no valid (b, i, state) triple to minimize over")
    return ProgressReport(Fraction(best_num, best_den), witness)
