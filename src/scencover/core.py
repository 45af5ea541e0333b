"""Shared data model: realizations, weighted samples, costs, decision trees,
and the policy layer every solver is written in.

A solver is a `Strategy`: it names the next item to query for an observed
partial realization, or None when done.  `materialize` expands any policy
into its decision tree and is the one tree builder; `SuffixedStrategy`
finishes a policy's unfinished paths in index order.

All arithmetic is exact: weights are positive integers, costs are positive
`Fraction`s, so every probability and expected cost is an exact rational.
A `CostVector` also carries its costs as integers in a common unit, which
the greedy layer compares and `follow`, `expected_cost` and the oracle sum
instead of the `Fraction`s.
Everything in this module but the policies' memos is immutable after
construction, and all operations are pure functions of their inputs.

Item indices are 0-based throughout the library; the file format used by the
CLI is 1-based (see `scencover.serialize`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

#: Marker for an item whose state has not been observed yet.
UNKNOWN = "*"


class ScencoverError(Exception):
    """Base class for errors raised by this library."""


class PreconditionError(ScencoverError):
    """An operation was called with arguments violating its contract."""


class StructureError(ScencoverError):
    """A decision tree or instance is structurally malformed."""


class OracleBudgetError(ScencoverError):
    """An exhaustive enumeration was refused: it exceeds its budget."""


#: Budget of `enumerate_partials`: most (states+1)^n partial realizations.
MAX_CHECK_SPACE = 300_000

#: Budget of `enumerate_realizations`: most states^n full realizations.
MAX_REALIZATIONS = 200_000


@dataclass(frozen=True)
class StateAlphabet:
    """Ordered set of distinct state symbols.

    The ordering is fixed and used for all deterministic tie-breaking
    (argmin/argmax over states picks the earliest symbol on ties).
    """

    states: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) < 2:
            raise PreconditionError("alphabet needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise PreconditionError("alphabet states must be distinct")
        if UNKNOWN in self.states:
            raise PreconditionError("%r is reserved for unknown entries" % UNKNOWN)

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __contains__(self, state):
        return state in self.states

    def index(self, state: str) -> int:
        return self.states.index(state)


def empty_partial(n: int) -> tuple[str, ...]:
    """The partial realization with no observed items."""
    return (UNKNOWN,) * n


def set_items(b: tuple[str, ...]) -> tuple[int, ...]:
    """Indices of observed items of b."""
    return tuple(i for i, s in enumerate(b) if s != UNKNOWN)


def free_items(b: tuple[str, ...]) -> tuple[int, ...]:
    """Indices of unobserved items of b."""
    return tuple(i for i, s in enumerate(b) if s == UNKNOWN)


def extend(b: tuple[str, ...], i: int, state: str) -> tuple[str, ...]:
    """Return b with position i set to `state`.  Position i must be unknown."""
    if not 0 <= i < len(b):
        raise PreconditionError("item index %d out of range for n=%d" % (i, len(b)))
    if b[i] != UNKNOWN:
        raise PreconditionError("position %d is already set to %r" % (i, b[i]))
    return b[:i] + (state,) + b[i + 1 :]


def enumerate_realizations(alphabet: StateAlphabet, n: int):
    """All full realizations over the alphabet, in lexicographic order;
    refused (`OracleBudgetError`) above MAX_REALIZATIONS of them."""
    space = len(alphabet) ** n
    if space > MAX_REALIZATIONS:
        raise OracleBudgetError("states^n = %d full realizations exceeds the "
                                "enumeration budget of %d" % (space, MAX_REALIZATIONS))
    return itertools.product(alphabet.states, repeat=n)


def enumerate_partials(alphabet: StateAlphabet, n: int):
    """All partial realizations (unknown marker included), lexicographic.
    Every exhaustive checker walks them, so this carries their budget:
    refused (`OracleBudgetError`) above MAX_CHECK_SPACE of them."""
    space = (len(alphabet) + 1) ** n
    if space > MAX_CHECK_SPACE:
        raise OracleBudgetError("(states+1)^n = %d partial realizations exceeds "
                                "MAX_CHECK_SPACE = %d" % (space, MAX_CHECK_SPACE))
    return itertools.product(alphabet.states + (UNKNOWN,), repeat=n)


#: Maps the digits b"0" and b"1" of a `bin` string to the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class WeightedSample:
    """Distinct full realizations with positive integer weights.

    Construction builds an exact row index: bit j of a row mask stands for
    row j.  There is one mask per (item, state) holding the rows with that
    state at that item, one mask per binary digit of the weights (bit plane
    k holds the rows whose weight has bit k set), and the all-rows mask.
    The rows extending a partial realization b are the AND of the masks of
    b's observed positions, and their weight is the sum over the planes of
    popcount(mask & plane_k) << k.  A query therefore costs O(n) big-int ANDs
    plus O(log w_max) popcounts, independent of the row count m.  The index
    holds at most n·|states| item masks, floor(log2 w_max) + 1 bit planes
    and the all-rows mask, each of m bits.

    The row masks are public: `all_rows` is the mask of the empty partial,
    `mask_of(b)` that of b, `step_mask(mask, i, s)` narrows a mask by one
    observation in one AND, and `mass(mask)` is the mask's total weight.  A
    caller that extends b one item at a time carries b's mask along instead
    of asking for the extension's mask afresh.
    """

    rows: tuple[tuple[tuple[str, ...], int], ...]
    _columns: tuple = field(init=False, repr=False, compare=False)
    _planes: tuple = field(init=False, repr=False, compare=False)
    _all: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        n = self.n
        columns = tuple({} for _ in range(n))
        planes: list[int] = []
        for j, (a, w) in enumerate(self.rows):
            if UNKNOWN in a:
                raise PreconditionError("sample rows must be full realizations")
            if len(a) != n:
                raise PreconditionError("sample rows differ in length")
            if a in seen:
                raise PreconditionError("duplicate sample row %r" % (a,))
            seen.add(a)
            if not (isinstance(w, int) and w >= 1):
                raise PreconditionError("weights must be positive integers")
            bit = 1 << j
            for column, s in zip(columns, a):
                column[s] = column.get(s, 0) | bit
            planes.extend([0] * (w.bit_length() - len(planes)))
            for k in range(w.bit_length()):
                if w >> k & 1:
                    planes[k] |= bit
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_planes", tuple(planes))
        object.__setattr__(self, "_all", (1 << len(self.rows)) - 1)

    @property
    def size(self) -> int:
        """Number of distinct rows (the sample's m)."""
        return len(self.rows)

    @property
    def total_weight(self) -> int:
        """Sum of all row weights (the sample's W)."""
        return self.mass(self._all)

    @property
    def n(self) -> int:
        return len(self.rows[0][0]) if self.rows else 0

    @property
    def all_rows(self) -> int:
        """Row mask of every row (that of the empty partial realization)."""
        return self._all

    def mask_of(self, b) -> int:
        """Row mask of the rows extending b."""
        if self.rows and len(b) != self.n:
            raise PreconditionError("dimension mismatch")
        mask = self._all
        for column, s in zip(self._columns, b):
            if s != UNKNOWN:
                mask &= column.get(s, 0)
                if not mask:
                    break
        return mask

    def step_mask(self, mask: int, i: int, s: str) -> int:
        """The rows of `mask` with state s at item i."""
        return mask & self._columns[i].get(s, 0)

    def mass(self, mask: int) -> int:
        """Total weight of the rows in a row mask."""
        total = 0
        for k, plane in enumerate(self._planes):
            total += (mask & plane).bit_count() << k
        return total

    def consistent_rows(self, b):
        """Rows extending b in sample order, together with their total weight."""
        mask = self.mask_of(b)
        # bin() lists bit j at position -1-j; reversed, row j pairs with bit
        # j, and as bytes 0/1 the digits select the rows in C
        bits = bin(mask)[:1:-1].encode("ascii").translate(_BIT_BYTES)
        return tuple(itertools.compress(self.rows, bits)), self.mass(mask)

    def weight_of(self, b) -> int:
        """Total weight of rows extending b."""
        return self.mass(self.mask_of(b))

    def scaled(self, factor: int) -> "WeightedSample":
        return WeightedSample(tuple((a, w * factor) for a, w in self.rows))


@dataclass(frozen=True)
class CostVector:
    """Positive exact rational cost per item.

    Construction also scales the costs to integers: `scale` is L, the lcm of
    the cost denominators, and `units[i]` is cost i times L, a positive int.
    Multiplying every cost by the same L > 0 keeps every sum and every
    cross-product comparison in order, so the greedy layer works on `units`
    and makes a `Fraction` only where a cost leaves it (k units are
    `Fraction(k, scale)`).
    """

    costs: tuple[Fraction, ...]
    scale: int = field(init=False, repr=False, compare=False)
    units: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        costs = tuple(Fraction(c) for c in self.costs)
        if any(c <= 0 for c in costs):
            raise PreconditionError("all costs must be positive")
        scale = math.lcm(*(c.denominator for c in costs))
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "units", tuple(
            c.numerator * (scale // c.denominator) for c in costs
        ))

    def __getitem__(self, i: int) -> Fraction:
        return self.costs[i]

    def __len__(self):
        return len(self.costs)

    def __iter__(self):
        return iter(self.costs)

    def total(self) -> Fraction:
        return sum(self.costs, Fraction(0))


class Leaf:
    """Terminal node of a decision tree; carries no label."""

    __slots__ = ()

    def __repr__(self):
        return "Leaf()"

    def __eq__(self, other):
        return isinstance(other, Leaf)

    def __hash__(self):
        return hash(Leaf)


class Node:
    """Internal decision-tree node: queries `item`, branches per state."""

    __slots__ = ("item", "children")

    def __init__(self, item: int, children: dict):
        self.item = item
        self.children = dict(children)

    def __repr__(self):
        return "Node(%d, %r)" % (self.item, self.children)

    def __eq__(self, other):
        return (
            isinstance(other, Node)
            and self.item == other.item
            and self.children == other.children
        )


def tree_size(tree) -> int:
    """Total node count (internal nodes and leaves)."""
    if isinstance(tree, Leaf):
        return 1
    return 1 + sum(tree_size(c) for c in tree.children.values())


def follow(tree, a: tuple[str, ...], costs: CostVector):
    """Walk the tree on realization a.

    Returns (path cost, terminal partial realization).  Raises
    StructureError on missing children or repeated items along the path.
    """
    total, b = _follow_units(tree, a, costs.units)
    return Fraction(total, costs.scale), b


def _follow_units(tree, a, units):
    """`follow` with the path cost as a sum of integer cost units."""
    b = empty_partial(len(a))
    total = 0
    node = tree
    while isinstance(node, Node):
        i = node.item
        if b[i] != UNKNOWN:
            raise StructureError("item %d repeats on the path" % i)
        state = a[i]
        if state not in node.children:
            raise StructureError("node for item %d lacks a %r-child" % (i, state))
        total += units[i]
        b = extend(b, i, state)
        node = node.children[state]
    if not isinstance(node, Leaf):
        raise StructureError("malformed tree node %r" % (node,))
    return total, b


class Strategy:
    """Adaptive policy: observed partial realization -> next item or None."""

    def next_item(self, b):
        raise NotImplementedError


def materialize(strategy: Strategy, alphabet, n: int):
    """Expand a policy into an explicit decision tree, branching on every
    state of the alphabet.  The only place a `Node` is built."""

    def build(b):
        i = strategy.next_item(b)
        if i is None:
            return Leaf()
        return Node(i, {s: build(extend(b, i, s)) for s in alphabet})

    return build(empty_partial(n))


class SuffixedStrategy(Strategy):
    """Run a base strategy, then query remaining items in ascending index
    order until the wrapped utility (a `UtilityFunction`) reaches its goal.
    The only index-order completion of unfinished paths.  Contract: where
    the base returns None at b and the suffix goes on, it returns None on
    every extension of b, so the base is not asked below a suffix item
    (whose children wait in `finished` until read)."""

    def __init__(self, base: Strategy, utility):
        self.base = base
        self.utility = utility
        self.finished: set = set()

    def next_item(self, b):
        if b in self.finished:
            self.finished.remove(b)
        else:
            i = self.base.next_item(b)
            if i is not None:
                return i
        if self.utility.value(b) < self.utility.goal:
            frees = free_items(b)
            if not frees:
                raise PreconditionError("goal unreachable: no items left")
            i = frees[0]
            self.finished.update(extend(b, i, s) for s in self.utility.alphabet)
            return i
        return None


@dataclass(frozen=True)
class ValidationReport:
    status: str  # "ok" or "violations"; every realization is covered
    violations: tuple[str, ...] = ()
    checked: int = 0

    def __bool__(self):
        return self.status == "ok"


@dataclass(frozen=True)
class ScenarioInstance:
    """A full problem instance: utility with goal, weighted sample, costs."""

    utility: "object"  # UtilityFunction (see scencover.utility)
    sample: WeightedSample
    costs: CostVector
    alphabet: StateAlphabet

    def __post_init__(self):
        n = self.utility.n
        if len(self.costs) != n:
            raise PreconditionError("cost vector length != n")
        if self.sample.rows and self.sample.n != n:
            raise PreconditionError("sample row length != n")
        if self.utility.goal <= 0:
            raise PreconditionError("goal value must be positive")
        if self.utility.alphabet != self.alphabet:
            raise PreconditionError("utility alphabet differs from instance alphabet")
        for a, _ in self.sample.rows:
            if any(s not in self.alphabet for s in a):
                raise PreconditionError("sample row uses undeclared state")
            if self.utility.value(a) != self.utility.goal:
                raise PreconditionError(
                    "utility does not reach its goal on sample row %r" % (a,)
                )

    @property
    def n(self) -> int:
        return self.utility.n

    @property
    def goal(self) -> int:
        return self.utility.goal


def expected_cost(tree, instance: ScenarioInstance) -> Fraction:
    """Expected path cost of the tree under the sample distribution: the
    weighted sum of the paths' integer cost units over W·L, one `Fraction`."""
    sample = instance.sample
    if not sample.rows:
        raise PreconditionError("expected cost undefined for an empty sample")
    units = instance.costs.units
    total = sum(w * _follow_units(tree, a, units)[0] for a, w in sample.rows)
    return Fraction(total, sample.total_weight * instance.costs.scale)


def validate_tree(tree, instance: ScenarioInstance,
                  scope: str = "all") -> ValidationReport:
    """Check that every realization reaches a leaf with goal utility.

    One walk over the tree's paths, branching on every state of the
    alphabet: each leaf and each missing child stands for a disjoint,
    non-empty set of realizations (those that `follow` leads there), so the
    verdict is that of following all states^n realizations, at a cost of
    O(tree size) and never more than states^n paths.  `checked` is states^n,
    the realizations covered.  "all" is the only scope.
    """
    if scope != "all":
        raise PreconditionError("unknown scope %r" % scope)
    g = instance.utility
    violations = []

    def walk(node, b):
        if isinstance(node, Leaf):
            if g.value(b) != g.goal:
                violations.append("terminal %r has utility %d < goal %d"
                                  % (b, g.value(b), g.goal))
        elif not isinstance(node, Node):
            violations.append("partial %r: malformed tree node %r" % (b, node))
        elif b[node.item] != UNKNOWN:
            violations.append("partial %r: item %d repeats on the path"
                              % (b, node.item))
        else:
            for s in instance.alphabet:
                if s in node.children:
                    walk(node.children[s], extend(b, node.item, s))
                else:
                    violations.append("partial %r: node for item %d lacks a %r-child"
                                      % (b, node.item, s))

    walk(tree, empty_partial(instance.n))
    status = "ok" if not violations else "violations"
    return ValidationReport(status, tuple(violations),
                            len(instance.alphabet) ** instance.n)
