"""Seeded random generation of instances and set functions for tests,
benchmarks, and the CLI generator.  Same seed, same output, always."""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    CostVector,
    PreconditionError,
    ScenarioInstance,
    StateAlphabet,
    WeightedSample,
)
from .serialize import build_utility

#: The utility families `random_instance` draws, by descriptor kind.
FAMILIES = ("coverage", "k_of_n", "or", "g_S", "g_W")

#: Cost pool: small exact rationals including non-integers.
COST_POOL = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(5, 2),
)

#: Largest sample row weight; row weights are drawn from 1..MAX_WEIGHT.
MAX_WEIGHT = 5

#: Chance that an item's state covers a universe element beyond the anchors.
EXTRA_DENSITY = 0.3


def default_alphabet(num_states: int) -> StateAlphabet:
    return StateAlphabet(tuple(str(k) for k in range(num_states)))


def random_costs(rng: random.Random, n: int) -> CostVector:
    return CostVector(tuple(rng.choice(COST_POOL) for _ in range(n)))


def random_sample(rng: random.Random, alphabet: StateAlphabet, n: int,
                  size: int) -> WeightedSample:
    space = len(alphabet) ** n
    if size < 1:
        raise PreconditionError("sample size must be at least 1")
    size = min(size, space)
    rows = set()
    while len(rows) < size:
        rows.add(tuple(rng.choice(alphabet.states) for _ in range(n)))
    return WeightedSample(
        tuple((a, rng.randint(1, MAX_WEIGHT)) for a in sorted(rows))
    )


def random_coverage_descriptor(rng: random.Random, n: int,
                               alphabet: StateAlphabet, universe_size: int = 4):
    """Descriptor of a coverage utility valid on every realization: each
    universe element gets an anchor item covering it in all states, plus
    random extra covers.  The descriptor is the serializable 1-based form
    used by the instance file format (`serialize.build_utility`)."""
    covers = {(i, s): set() for i in range(n) for s in alphabet}
    for u in range(universe_size):
        anchor = rng.randrange(n)
        for s in alphabet:
            covers[(anchor, s)].add(u)
    for i in range(n):
        for s in alphabet:
            for u in range(universe_size):
                if rng.random() < EXTRA_DENSITY:
                    covers[(i, s)].add(u)
    return {
        "kind": "coverage",
        "universe_size": universe_size,
        "covers": {
            str(i + 1): {s: sorted(covers[(i, s)]) for s in alphabet}
            for i in range(n)
        },
    }


def random_instance(rng: random.Random, n: int = 4, num_states: int = 2,
                    sample_size: int = 4, family: str = "coverage",
                    universe_size: int = 4):
    """A full random instance of the requested utility family, one of
    FAMILIES, built from its drawn descriptor by `build_utility`.

    Returns (instance, descriptor).  Families "g_S" and "g_W" wrap a random
    coverage utility with the respective elimination combination over the
    generated sample; k_of_n needs two states.
    """
    if n < 1 or universe_size < 1:
        raise PreconditionError("n and universe_size must be at least 1, got "
                                "%d and %d" % (n, universe_size))
    alphabet = default_alphabet(num_states)
    sample = random_sample(rng, alphabet, n, sample_size)
    costs = random_costs(rng, n)

    def coverage():
        return random_coverage_descriptor(rng, n, alphabet, universe_size)

    if family == "coverage":
        descriptor = coverage()
    elif family == "k_of_n":
        descriptor = {"kind": "k_of_n", "k": rng.randint(1, n)}
    elif family == "or":
        descriptor = {"kind": "or", "left": coverage(), "right": coverage()}
    elif family in ("g_S", "g_W"):
        descriptor = {"kind": family, "inner": coverage()}
    else:
        raise PreconditionError("unknown utility family %r" % family)

    utility = build_utility(descriptor, n, alphabet, sample)
    return ScenarioInstance(utility, sample, costs, alphabet), descriptor


class BitmaskCoverage:
    """Weighted-coverage set function on bitmasks; f(empty) = 0, monotone
    and submodular.  Fast enough for exhaustive budgeted enumeration."""

    def __init__(self, masks: list[int], element_weights: list[int]):
        self.masks = list(masks)
        self.weights = list(element_weights)
        self._cache: dict = {}

    def __call__(self, r: frozenset) -> int:
        v = self._cache.get(r)
        if v is None:
            union = 0
            for i in r:
                union |= self.masks[i]
            v = sum(w for u, w in enumerate(self.weights) if union >> u & 1)
            self._cache[r] = v
        return v


def random_set_function(rng: random.Random, n: int, universe_size: int = 8):
    """A random coverage set function (monotone submodular) with
    f(empty) = 0 and f positive on the full ground set."""
    weights = [rng.randint(1, 5) for _ in range(universe_size)]
    masks = []
    for _ in range(n):
        mask = 0
        while mask == 0:
            mask = rng.getrandbits(universe_size)
        masks.append(mask)
    # make sure the union covers everything so f(N) is the full weight
    masks[rng.randrange(n)] |= (1 << universe_size) - 1
    return BitmaskCoverage(masks, weights)
