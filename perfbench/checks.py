"""Output checks that do not trust the solvers.

Goal attainment is decided from the instance file's utility descriptor
(1-based, as written by `save_instance`), not from the library's utility
objects, and tree walks and costs are recomputed here.  Every function
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from scencover.core import UNKNOWN, Leaf, Node


def _consistent(a, b) -> bool:
    return all(s == UNKNOWN or s == t for s, t in zip(b, a))


def goal_reached(descriptor, b, rows) -> bool:
    """True iff the utility described by `descriptor` is at its goal on b.

    An OR combination is at its goal when either side is; count and weight
    elimination are at theirs when no sample row is consistent with b.
    """
    kind = descriptor["kind"]
    if kind == "coverage":
        covered = set()
        for item, per_state in descriptor["covers"].items():
            state = b[int(item) - 1]
            if state != UNKNOWN:
                covered.update(per_state.get(state, ()))
        return len(covered) == descriptor["universe_size"]
    if kind == "k_of_n":
        k = descriptor["k"]
        return b.count("1") >= k or b.count("0") >= len(b) - k + 1
    if kind == "or":
        return (goal_reached(descriptor["left"], b, rows)
                or goal_reached(descriptor["right"], b, rows))
    if kind in ("g_S", "g_W"):
        return (goal_reached(descriptor["inner"], b, rows)
                or not any(_consistent(a, b) for a, _ in rows))
    raise ValueError("no independent goal check for utility kind %r" % kind)


def check_session(instance, descriptor, realization, items, cost, terminal):
    """One online session: distinct items, terminal state and cost agree
    with the queried items, and the goal holds at the terminal state."""
    failures = []
    if len(set(items)) != len(items):
        failures.append("an item repeats in session %r" % (items,))
    expected = [UNKNOWN] * instance.n
    for i in items:
        expected[i] = realization[i]
    if tuple(expected) != tuple(terminal):
        failures.append("terminal state disagrees with the queried items")
    if sum((instance.costs[i] for i in items), Fraction(0)) != cost:
        failures.append("session cost differs from the sum of item costs")
    if not goal_reached(descriptor, tuple(terminal), instance.sample.rows):
        failures.append("goal not reached at %r" % (tuple(terminal),))
    return failures


def check_tree(tree, instance, descriptor):
    """Walk every root-to-leaf path: no item repeats, every node branches
    on exactly the alphabet, and the goal holds at every leaf.

    Returns (failures, node count).
    """
    failures = []
    states = set(instance.alphabet.states)
    rows = instance.sample.rows
    nodes = 0
    todo = [(tree, (UNKNOWN,) * instance.n)]
    while todo:
        node, b = todo.pop()
        nodes += 1
        if isinstance(node, Leaf):
            if not goal_reached(descriptor, b, rows):
                failures.append("leaf at %r misses the goal" % (b,))
            continue
        if not isinstance(node, Node) or b[node.item] != UNKNOWN:
            failures.append("item repeats or bad node below %r" % (b,))
            continue
        if set(node.children) != states:
            failures.append("node %d does not branch on every state" % node.item)
            continue
        for s, child in node.children.items():
            todo.append((child, b[:node.item] + (s,) + b[node.item + 1:]))
    return failures, nodes


def recomputed_cost(tree, instance) -> Fraction:
    """Expected path cost under the sample, walked here."""
    total = Fraction(0)
    weight = 0
    for a, w in instance.sample.rows:
        node = tree
        path = Fraction(0)
        while isinstance(node, Node):
            path += instance.costs[node.item]
            node = node.children[a[node.item]]
        total += w * path
        weight += w
    return total / weight


def tree_digest(tree) -> str:
    """Short stable digest of a tree's shape and items."""
    parts = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            parts.append("L")
            continue
        parts.append("N%d:%s" % (node.item, ",".join(sorted(node.children))))
        todo.extend(node.children[s] for s in sorted(node.children, reverse=True))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def session_digest(items, cost) -> str:
    text = "%s|%s" % (",".join(map(str, items)), cost)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
