"""Shared seeded generators for the test suite.

Everything is derived deterministically from small integer seeds so failures
reproduce exactly.
"""

import random
from fractions import Fraction

from scencover.core import (
    CostVector,
    Leaf,
    Node,
    StructureError,
    ValidationReport,
    empty_partial,
    enumerate_realizations,
    extend,
    follow,
)
from scencover.generate import random_instance, random_set_function
from scencover.mixedgreedy import combined_count_instance, invocation_plan
from scencover.oracle import fixed_order_completion

FAMILIES = ("coverage", "k_of_n", "or", "g_S", "g_W")


def seeded_instance(seed, max_n=5, max_states=3, max_rows=8,
                    families=FAMILIES):
    """One deterministic random instance.  Returns (instance, descriptor)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    family = rng.choice(families)
    states = 2 if family == "k_of_n" else rng.randint(2, max_states)
    sample_size = rng.randint(1, max_rows)
    return random_instance(
        rng,
        n=n,
        num_states=states,
        sample_size=sample_size,
        family=family,
        universe_size=rng.randint(2, 5),
    )


def instance_stream(count, base_seed=0, **kwargs):
    """Deterministic sequence of (seed, instance, descriptor)."""
    for k in range(count):
        seed = base_seed + k
        instance, descriptor = seeded_instance(seed, **kwargs)
        yield seed, instance, descriptor


def seeded_budgeted(seed, max_items=12):
    """One deterministic budgeted problem: (items, f, costs, budget)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_items)
    f = random_set_function(rng, n, universe_size=rng.randint(4, 10))
    costs = CostVector(
        tuple(Fraction(rng.randint(1, 8), rng.choice([1, 2])) for _ in range(n))
    )
    total = sum((costs[i] for i in range(n)), Fraction(0))
    budget = total * Fraction(rng.randint(1, 4), 4)
    return list(range(n)), f, costs, budget


def reference_mixed_greedy(instance, b=None, traces=None):
    """The backbone tree built by explicit recursion over invocations: the
    reference that `materialize(MixedGreedyStrategy)` must reproduce.

    `traces`, if given, collects every InvocationTrace in construction
    order (pre-order, off-anchor subtrees before the backbone's tail).
    """
    g = instance.utility
    if b is None:
        b = empty_partial(instance.n)
    if g.value(b) == g.goal:
        return Leaf()
    trace = invocation_plan(instance, b)
    if traces is not None:
        traces.append(trace)

    chain = []  # (node, anchor state) per backbone node
    cur = b
    for i in trace.plan:
        s_i = trace.sigma[i]
        children = {
            s: reference_mixed_greedy(instance, extend(cur, i, s), traces)
            for s in instance.alphabet
            if s != s_i
        }
        node = Node(i, children)
        chain.append((node, s_i))
        cur = extend(cur, i, s_i)
    tail = reference_mixed_greedy(instance, cur, traces)
    for (node, s_i), nxt in zip(chain, [c for c, _ in chain[1:]] + [tail]):
        node.children[s_i] = nxt
    return chain[0][0]


def reference_scenario_mixed_greedy_tree(instance, traces=None):
    """The reference backbone tree on the count-elimination combination,
    with every leaf below the original goal completed in index order."""
    tree = reference_mixed_greedy(combined_count_instance(instance),
                                  traces=traces)
    return _complete_leaves(tree, instance.utility, empty_partial(instance.n))


def _complete_leaves(tree, g, b):
    if isinstance(tree, Leaf):
        if g.value(b) < g.goal:
            return fixed_order_completion(g, b)
        return tree
    return Node(
        tree.item,
        {
            s: _complete_leaves(child, g, extend(b, tree.item, s))
            for s, child in tree.children.items()
        },
    )


def reference_validate_tree(tree, instance):
    """Validation by running `follow` on every one of the states^n
    realizations: the reference that `validate_tree`'s path walk must agree
    with on status and on the realization count."""
    g = instance.utility
    violations = []
    checked = 0
    for a in enumerate_realizations(instance.alphabet, instance.n):
        checked += 1
        try:
            _, terminal = follow(tree, a, instance.costs)
        except StructureError as exc:
            violations.append("realization %r: %s" % (a, exc))
            continue
        if g.value(terminal) != g.goal:
            violations.append("realization %r: terminal %r below the goal"
                              % (a, terminal))
    status = "ok" if not violations else "violations"
    return ValidationReport(status, tuple(violations), checked)
