"""Shared seeded generators for the test suite.

Everything is derived deterministically from small integer seeds so failures
reproduce exactly.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from scencover.budgeted import ALPHA, best_ratio, wolsey_greedy
from scencover.core import (
    UNKNOWN,
    CostVector,
    Leaf,
    Node,
    PreconditionError,
    ScenarioInstance,
    StateAlphabet,
    Strategy,
    StructureError,
    ValidationReport,
    WeightedSample,
    empty_partial,
    enumerate_partials,
    enumerate_realizations,
    extend,
    follow,
    free_items,
    set_items,
)
from scencover.generate import FAMILIES, random_instance, random_set_function
from scencover.minsum import JobFunction, full_cost_schedule
from scencover.mixedgreedy import (
    InducedUtility,
    InvocationTrace,
    MixedGreedyStrategy,
    anchored,
    combined_count_instance,
    invocation_plan,
    weight_removal_function,
)
from scencover.oracle import optimal_budgeted
from scencover.utility import (
    CheckReport,
    ProgressReport,
    TableUtility,
    expected_marginal,
    marginal,
    worst_state,
)


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


def seeded_table_instance(seed, max_n=4, max_states=3, max_rows=6):
    """One deterministic instance on a random `TableUtility`: every full
    realization at the goal, every other partial realization at a random
    level in [0, goal], so the utility is rarely monotone."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    alphabet = StateAlphabet(tuple("abc"[:rng.randint(2, max_states)]))
    goal = rng.randint(1, 4)
    table = {b: goal if UNKNOWN not in b else rng.randint(0, goal)
             for b in enumerate_partials(alphabet, n)}
    fulls = list(enumerate_realizations(alphabet, n))
    rows = sorted(rng.sample(fulls, rng.randint(1, min(max_rows, len(fulls)))))
    sample = WeightedSample(tuple((a, rng.randint(1, 3)) for a in rows))
    costs = CostVector(tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3))
                             for _ in range(n)))
    return ScenarioInstance(TableUtility(table, goal, n, alphabet), sample,
                            costs, alphabet)


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


class RootReplayStrategy(MixedGreedyStrategy):
    """The backbone policy replaying every call from the root: the reference
    that `MixedGreedyStrategy`, resuming where a parent's call stopped,
    must answer like at every b."""

    def next_item(self, b):
        g = self.instance.utility
        frame = empty_partial(len(b))
        while True:
            trace = self.plans.get(frame)
            if trace is None:
                if g.value(frame) == g.goal:
                    return None
                trace = self.plans[frame] = invocation_plan(self.instance, frame)
            for k, i in enumerate(trace.plan):
                if b[i] == UNKNOWN:
                    return i
                if b[i] != trace.sigma[i]:
                    break
            frame = anchored(frame, trace.plan[:k + 1], b)


class AskingSuffixedStrategy(Strategy):
    """`SuffixedStrategy` asking its base at every b, also below a suffix
    item: the reference for the suffix that stops asking a finished base."""

    def __init__(self, base, utility):
        self.base, self.utility = base, utility

    def next_item(self, b):
        i = self.base.next_item(b)
        if i is None and self.utility.value(b) < self.utility.goal:
            frees = free_items(b)
            if not frees:
                raise PreconditionError("goal unreachable: no items left")
            i = frees[0]
        return i


def reference_scenario_mixed_greedy(instance):
    """The scenario-mixed policy from the two references above."""
    return AskingSuffixedStrategy(
        RootReplayStrategy(combined_count_instance(instance)), instance.utility)


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


def fixed_order_completion(g, b):
    """Query free items in index order until the goal is reached: the
    reference completion of branches no sample row reaches."""
    if g.value(b) == g.goal:
        return Leaf()
    frees = free_items(b)
    if not frees:
        raise PreconditionError("no free items left but goal not reached")
    i = frees[0]
    return Node(
        i, {s: fixed_order_completion(g, extend(b, i, s)) for s in g.alphabet}
    )


def reference_optimal_tree(instance):
    """The oracle tree by explicit recursion over partial realizations: the
    reference that `optimal_tree`, `materialize` of the oracle policy, must
    reproduce.  At each state with sample mass below the goal the first item
    minimizing immediate cost plus the weighted optimal cost of the
    consistent children; zero-mass branches completed in index order.
    Returns (tree, expected cost)."""
    g = instance.utility
    costs = instance.costs
    memo = {}

    def item_cost(b, wb, i):
        total = costs[i]
        for s in instance.alphabet:
            child = extend(b, i, s)
            wc = instance.sample.weight_of(child)
            if wc:
                total += Fraction(wc, wb) * best_cost(child)
        return total

    def best_cost(b):
        if g.value(b) == g.goal:
            return Fraction(0)
        wb = instance.sample.weight_of(b)
        if wb == 0:
            return Fraction(0)
        if b not in memo:
            memo[b] = min(item_cost(b, wb, i) for i in free_items(b))
        return memo[b]

    def build(b):
        if g.value(b) == g.goal:
            return Leaf()
        wb = instance.sample.weight_of(b)
        if wb == 0:
            return fixed_order_completion(g, b)
        best_item = min(free_items(b), key=lambda i: item_cost(b, wb, i))
        return Node(
            best_item,
            {s: build(extend(b, best_item, s)) for s in instance.alphabet},
        )

    root = empty_partial(instance.n)
    return build(root), best_cost(root)


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


def is_extension(b2, b1):
    """True iff b2 agrees with b1 on every observed position of b1."""
    if len(b2) != len(b1):
        raise PreconditionError("length mismatch: %d vs %d" % (len(b2), len(b1)))
    return all(s1 == UNKNOWN or s1 == s2 for s1, s2 in zip(b1, b2))


def concat(left, right):
    """The schedule `left` followed by `right`."""
    return tuple(left) + tuple(right)


def job_after(job, prefix):
    """The residual job of a `JobFunction`: its value on (prefix followed
    by the schedule)."""
    done = job.completed(tuple(prefix))
    return JobFunction(lambda r: job.base(done | r), job.costs, job.scale)


def reference_standard_greedy(items, f, costs):
    """The schedule greedy as its own loop over frozensets: the reference
    that `standard_greedy`, the picks of one `GreedyOrder`, must reproduce."""
    items = sorted(items)
    full = f(frozenset(items))
    if full <= 0:
        raise PreconditionError("set function must be positive on all items")
    chosen: list[int] = []
    current = frozenset()
    value = f(current)
    while value < full:
        remaining = [i for i in items if i not in current]
        best = best_ratio(remaining, lambda i: f(current | {i}) - value, costs)
        chosen.append(best)
        current = current | {best}
        value = f(current)
    return full_cost_schedule(chosen, costs)


def check_wolsey_bound(items, f, costs, budget):
    """Greedy value >= alpha * exhaustive optimum within the budget."""
    _, opt_value = optimal_budgeted(items, f, costs, budget)
    greedy_value = f(wolsey_greedy(items, f, costs, budget))
    return greedy_value >= ALPHA * opt_value


# The greedy layer with `Fraction` costs: the references that the integer
# cost units (`CostVector.units`) must reproduce exactly.

def reference_best_ratio(items, gain, costs):
    """Best gain per cost by `Fraction` cross-products, first maximizer."""
    best = best_gain = None
    for i in items:
        g = gain(i)
        if best is None or g * costs[best] > best_gain * costs[i]:
            best, best_gain = i, g
    return best


def reference_wolsey_greedy(items, f, costs, budget):
    """Wolsey's greedy with `Fraction` eligibility and spent cost."""
    budget = Fraction(budget)
    eligible = sorted(i for i in items if costs[i] <= budget)
    if not eligible:
        return frozenset()
    chosen = []
    spent = Fraction(0)
    current = frozenset()
    base = f(current)
    while True:
        best = reference_best_ratio(
            eligible, lambda i: f(current | {i}) - base, costs)
        chosen.append(best)
        eligible.remove(best)
        spent += costs[best]
        current = current | {best}
        base = f(current)
        if spent > budget or not eligible:
            break
    last = chosen[-1]
    rest = current - {last}
    if f(frozenset({last})) >= f(rest):
        return frozenset({last})
    return rest


def reference_budget_candidates(items, costs):
    """The sorted `Fraction` subset sums of the items' costs."""
    sums = {Fraction(0)}
    for i in items:
        sums |= {s + costs[i] for s in sums}
    return sorted(sums)


def reference_find_budget(items, f, costs):
    """The least budget at which the reference greedy reaches ALPHA of f
    over all items.  Up to 20 items it is the first feasible `Fraction`
    subset sum.  Above 20 it is the first feasible whole number of cost
    units c/L, c = 0..total units (L = `costs.scale`), rounded up to the
    next multiple of total/2^20."""
    items = sorted(items)
    full_value = f(frozenset(items))
    if full_value <= 0:
        raise PreconditionError("set function must be positive on all items")
    target = ALPHA * full_value

    def feasible(budget):
        return f(reference_wolsey_greedy(items, f, costs, budget)) >= target

    total = sum((costs[i] for i in items), Fraction(0))
    if len(items) <= 20:
        budgets = reference_budget_candidates(items, costs)
    else:
        budgets = (Fraction(c, costs.scale)
                   for c in range(int(total * costs.scale) + 1))
    budget = next((b for b in budgets if feasible(b)), None)
    if budget is None:
        raise PreconditionError("no budget up to the total cost suffices")
    if len(items) <= 20:
        return budget
    step = total / (1 << 20)
    return math.ceil(budget / step) * step


def reference_invocation_plan(instance, b):
    """One invocation with `Fraction` budget, eligibility and spent cost,
    and anchors chosen by `worst_state` from the value memo."""
    g = instance.utility
    costs = instance.costs
    gb = g.value(b)
    frees = free_items(b)
    sigma = {i: worst_state(g, b, i) for i in frees}

    def anchored_gain(u):
        cur = b
        for i in u:
            cur = extend(cur, i, sigma[i])
        return g.value(cur) - gb

    budget = reference_find_budget(frees, functools.cache(anchored_gain), costs)
    eligible = sorted(i for i in frees if costs[i] <= budget)
    cur = b
    chosen = frozenset()

    def stage(gain):
        nonlocal cur, chosen
        picked = []
        spent = Fraction(0)
        while True:
            best = reference_best_ratio(eligible, gain, costs)
            picked.append(best)
            eligible.remove(best)
            chosen = chosen | {best}
            spent += costs[best]
            cur = extend(cur, best, sigma[best])
            if spent >= budget:
                return tuple(picked), "budget"
            if g.value(cur) == g.goal:
                return tuple(picked), "goal"
            if not eligible:
                return tuple(picked), "exhausted"

    if instance.sample.weight_of(b) == 0:
        stage1, stage1_exit = (), "skipped"
    else:
        h = functools.cache(weight_removal_function(instance, b, sigma))
        stage1, stage1_exit = stage(lambda i: h(chosen | {i}) - h(chosen))
    if stage1_exit == "goal":
        stage2, stage2_exit = (), "skipped"
    elif not eligible:
        stage2, stage2_exit = (), "empty"
    else:
        stage2, stage2_exit = stage(lambda i: marginal(g, cur, i, sigma[i]))
    return InvocationTrace(
        entry=b, sigma=sigma, budget=budget,
        stage1_items=stage1, stage2_items=stage2,
        stage1_exit=stage1_exit, stage2_exit=stage2_exit,
        final=cur, entry_value=gb, final_value=g.value(cur),
    )


# Path and session costs and the progress ratio with `Fraction` arithmetic:
# the references that the integer versions must reproduce exactly.

def reference_follow(tree, a, costs):
    """`follow` adding the path's `Fraction` costs."""
    b = empty_partial(len(a))
    total = Fraction(0)
    node = tree
    while isinstance(node, Node):
        i = node.item
        if b[i] != UNKNOWN:
            raise StructureError("item %d repeats on the path" % i)
        state = a[i]
        if state not in node.children:
            raise StructureError("node for item %d lacks a %r-child" % (i, state))
        total += costs[i]
        b = extend(b, i, state)
        node = node.children[state]
    if not isinstance(node, Leaf):
        raise StructureError("malformed tree node %r" % (node,))
    return total, b


def reference_execute_online(strategy, reveal, costs):
    """`execute_online` adding the session's `Fraction` costs."""
    b = empty_partial(len(costs))
    chosen = []
    total = Fraction(0)
    while True:
        i = strategy.next_item(b)
        if i is None:
            return tuple(chosen), total, b
        chosen.append(i)
        total += costs[i]
        b = extend(b, i, reveal(i))


def reference_expected_cost(tree, instance):
    """Expected cost as a running `Fraction` sum of weighted path costs."""
    sample = instance.sample
    if not sample.rows:
        raise PreconditionError("expected cost undefined for an empty sample")
    total = Fraction(0)
    for a, w in sample.rows:
        kappa, _ = reference_follow(tree, a, instance.costs)
        total += w * kappa
    return total / sample.total_weight


def reference_partial_table(alphabet, n, root, step, finish):
    """The row-wise fold: each state's children appended in turn, one
    `step` per partial realization but the empty one and one `finish` per
    entry, in `enumerate_partials` order."""
    states = alphabet.states
    layer = [root]
    for i in range(n):
        children = []
        for state in layer:
            children += [step(state, i, s) for s in states]
            children.append(state)
        layer = children
    return list(map(finish, layer))


def reference_level_table(g):
    """g's levels by the row-wise fold over g's own states, an OR's pairs
    folded by the OR's `step` and `level`."""
    return reference_partial_table(g.alphabet, g.n, g.root(), g.step, g.level)


def reference_induced_instance(instance, b):
    """The sub-instance over b's free items, always built as a restriction
    read through `InducedUtility`, at the root too."""
    frees = free_items(b)
    rows, _ = instance.sample.consistent_rows(b)
    return ScenarioInstance(
        InducedUtility(instance.utility, b),
        WeightedSample(tuple((tuple(a[i] for i in frees), w) for a, w in rows)),
        CostVector(tuple(instance.costs[i] for i in frees)),
        instance.alphabet,
    )


def reference_min_progress_ratio(g):
    """Minimize gain/(goal - value) over b, free i, and the states other
    than `worst_state`, comparing `Fraction` ratios; first minimizer."""
    best = None
    witness = None
    for b in enumerate_partials(g.alphabet, g.n):
        gb = g.value(b)
        if gb >= g.goal:
            continue
        remaining = g.goal - gb
        for i in free_items(b):
            worst = worst_state(g, b, i)
            for state in g.alphabet:
                if state == worst:
                    continue
                ratio = Fraction(marginal(g, b, i, state), remaining)
                if best is None or ratio < best:
                    best, witness = ratio, (b, i, state)
    if best is None:
        raise PreconditionError("no valid (b, i, state) triple to minimize over")
    return ProgressReport(best, witness)


def reference_check_monotone(g):
    """Monotonicity between each b and its one-item extensions, read
    through `value`; witness (b, i, state)."""
    for b in enumerate_partials(g.alphabet, g.n):
        gb = g.value(b)
        for i in free_items(b):
            for state in g.alphabet:
                if g.value(extend(b, i, state)) < gb:
                    return CheckReport(False, (b, i, state))
    return CheckReport(True)


def reference_one_step_submodular(g):
    """Diminishing gains between each b and its one-item extensions
    b2 = b+(j,t), every (i, state) with i != j tested, read through
    `value`; witness (b, b2, i, state)."""
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


def reference_one_step_adaptive_submodular(g, sample):
    """Adaptive submodularity between each b of positive weight and its
    one-item extensions b2 of positive weight, comparing `Fraction`
    expected gains; witness (b, b2, i)."""
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


def _strict_ancestors(b):
    """All b0 with b > b0, obtained by unsetting nonempty subsets of set items."""
    fixed = set_items(b)
    for r in range(1, len(fixed) + 1):
        for drop in itertools.combinations(fixed, r):
            b0 = list(b)
            for i in drop:
                b0[i] = UNKNOWN
            yield tuple(b0)


def reference_check_submodular(g):
    """Diminishing gains between every partial realization and each of its
    strict ancestors.  Witness is (b1, b2, i, state) with b1 < b2."""
    for b2 in enumerate_partials(g.alphabet, g.n):
        frees = free_items(b2)
        for b1 in _strict_ancestors(b2):
            for i in frees:
                for state in g.alphabet:
                    if marginal(g, b1, i, state) < marginal(g, b2, i, state):
                        return CheckReport(False, (b1, b2, i, state))
    return CheckReport(True)


def reference_check_adaptive_submodular(g, sample):
    """Adaptive submodularity between every partial realization of positive
    weight and each of its strict ancestors of positive weight.  Witness is
    (b1, b2, i) with b1 < b2."""
    for b2 in enumerate_partials(g.alphabet, g.n):
        if sample.weight_of(b2) == 0:
            continue
        frees = free_items(b2)
        for b1 in _strict_ancestors(b2):
            if sample.weight_of(b1) == 0:
                continue
            for i in frees:
                e1 = expected_marginal(g, sample, b1, i)
                e2 = expected_marginal(g, sample, b2, i)
                if e1 < e2:
                    return CheckReport(False, (b1, b2, i))
    return CheckReport(True)
