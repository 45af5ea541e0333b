"""Two-stage backbone policy (Mixed Greedy) and its scenario wrapper.

Each invocation anchors a worst-case state per free item, budgets the work
with a greedy budget search, then grows a backbone path in two greedy stages:
first removing sample mass from the backbone as cheaply as possible, then
raising utility along the anchor states.  An observed state off the anchor,
or the end of the backbone, starts a fresh invocation there.

The backbone is a `core.Strategy`: run it online with `execute_online`, or
expand it into a tree with `core.materialize`, the one tree builder;
`mixed_greedy` and `scenario_mixed_greedy_tree` are `materialize` applied
to their policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .budgeted import GreedyOrder, IncrementalFunction, find_budget
from .core import (
    UNKNOWN,
    CostVector,
    OracleBudgetError,
    PreconditionError,
    ScenarioInstance,
    Strategy,
    SuffixedStrategy,
    WeightedSample,
    empty_partial,
    extend,
    free_items,
    materialize,
)
from .minsum import full_cost_schedule, make_job, schedule_cost
from .oracle import optimal_tree
from .utility import UtilityFunction, scenario_count_utility


def execute_online(strategy: Strategy, reveal, costs: CostVector):
    """Walk a policy against a state oracle without building the tree.

    `reveal(item)` returns the item's state.  Returns (items queried in
    order, total cost, terminal partial realization).
    """
    b = empty_partial(len(costs))
    chosen = []
    units = costs.units
    total = 0  # in cost units
    while True:
        i = strategy.next_item(b)
        if i is None:
            return tuple(chosen), Fraction(total, costs.scale), b
        chosen.append(i)
        total += units[i]
        b = extend(b, i, reveal(i))


def anchored(b, items, sigma):
    """b with each of `items` set to its state sigma[i] (a dict by item or a
    realization), built in one pass.  Every item must be free in b."""
    cur = list(b)
    for i in items:
        if cur[i] != UNKNOWN:
            raise PreconditionError("position %d is already set to %r"
                                    % (i, cur[i]))
        cur[i] = sigma[i]
    return tuple(cur)


def worst_case_realization(g: UtilityFunction, state, frees):
    """Anchor state (minimum gain, alphabet order on ties) per item of
    `frees`, the free items of some b, each gain one `step` from `state`,
    b's state `g.state_of(b)`.

    Returns (sigma, round): sigma maps each item to its anchor state, and
    round maps it to (the state after its anchor step, that step's gain),
    the root round of the gain of anchoring a set from b."""
    step, level = g.step, g.level
    base = level(state)
    sigma, anchor_round = {}, {}
    for i in frees:
        best = None
        for s in g.alphabet.states:
            after = step(state, i, s)
            v = level(after)
            if best is None or v < least:
                best, least, best_after = s, v, after
        sigma[i] = best
        anchor_round[i] = best_after, least - base
    return sigma, anchor_round


def weight_removal_function(instance: ScenarioInstance, b,
                            sigma: dict) -> IncrementalFunction:
    """Stage-1 objective: weight of consistent rows that deviate from the
    anchor realization on at least one item of the argument set.

    Those are the rows consistent with b less the rows consistent with b
    anchored on the whole set, so h(r) = W_b - W(b with sigma on r).  Read
    incrementally, the state is the row mask of b anchored on the set: the
    root is b's mask, adding item i keeps the rows with sigma[i] at i.  It
    is monotone by construction: anchoring more items keeps fewer rows.
    """
    sample = instance.sample
    mask = sample.mask_of(b)
    wb = sample.mass(mask)
    step_mask, mass = sample.step_mask, sample.mass
    return IncrementalFunction(mask, lambda m, i: step_mask(m, i, sigma[i]),
                               lambda m: wb - mass(m), monotone=True)


@dataclass(frozen=True)
class InvocationTrace:
    """Record of the decisions of one invocation of the backbone policy."""

    entry: tuple
    sigma: dict
    budget: Fraction
    stage1_items: tuple
    stage2_items: tuple
    stage1_exit: str  # "budget", "goal", "exhausted", or "skipped"
    stage2_exit: str  # "budget", "goal", "exhausted", "empty", or "skipped"
    final: tuple
    entry_value: int
    final_value: int

    @property
    def plan(self):
        return self.stage1_items + self.stage2_items


def invocation_plan(instance: ScenarioInstance, b) -> InvocationTrace:
    """Compute the full backbone of one invocation.

    The backbone of an invocation is a pure function of its entry partial
    realization: the anchor realization, budget, and both greedy stages do
    not depend on observed states.
    """
    g = instance.utility
    costs = instance.costs
    gb = g.value(b)
    if gb >= g.goal:
        raise PreconditionError("goal already reached at %r" % (b,))
    frees = free_items(b)
    if not frees:
        raise PreconditionError(
            "no free items at %r but utility %d < goal %d" % (b, gb, g.goal)
        )
    state = g.state_of(b)  # then g's state of b anchored on every pick
    sigma, anchor_round = worst_case_realization(g, state, frees)
    step, level = g.step, g.level
    # the utility gained by anchoring a set, read from b's state; monotone
    # when g is.  Its rounds serve every budget probe and both stages, and
    # the anchor scan has made the one at b's state
    anchored_gain = IncrementalFunction(
        state, lambda st, i: step(st, i, sigma[i]), lambda st: level(st) - gb,
        g.monotone)
    anchored_gain.rounds[state] = anchor_round
    successor = anchored_gain.successor
    # the gain of anchoring every free item, from the state of b anchored on
    # them all, so that no step leaves b's state twice; find_budget reads it
    worst = anchored(b, frees, sigma)
    full_gain = level(g.state_of(worst)) - gb
    anchored_gain.known[frozenset(frees)] = full_gain
    if full_gain <= 0:
        raise PreconditionError("worst-case realization %r has utility %d < goal %d"
                                % (worst, gb + full_gain, g.goal))

    try:
        budget = find_budget(frees, anchored_gain, costs)
    except PreconditionError as exc:
        # at the total budget the greedy picks every free item, and were the
        # gain submodular, its last pick or the rest would reach half of it
        raise PreconditionError("%s at %r: the gain of anchoring worst-case "
                                "states is not submodular" % (exc, b)) from exc
    # the budget in integer cost units: for an int s, s <= budget*L iff
    # s <= floor(budget*L), and s >= budget*L iff s >= ceil(budget*L); grid
    # budgets (above 20 items) need not be whole units
    units = costs.units
    num, den = budget.numerator * costs.scale, budget.denominator
    fits, spends = num // den, -(-num // den)
    eligible = sorted(i for i in frees if units[i] <= fits)

    gain = 0  # anchored_gain's value at `state`
    goal_gain = g.goal - gb

    def stage(f, items):
        """Anchor the picks of f's greedy order over `items` until the
        budget is spent, the goal is met, or no item is left (tested in
        that order).  Returns the order and the exit."""
        nonlocal state, gain
        order = GreedyOrder(items, f, costs)
        while True:
            best = order.pick()
            state, gain = successor(state, best)
            if order.spent[-1] >= spends:
                return order, "budget"
            if gain == goal_gain:
                return order, "goal"
            if not order.remaining:
                return order, "exhausted"

    _, wb = instance.sample.consistent_rows(b)
    if wb == 0:
        # no consistent mass: removing weight is pointless, go straight to
        # the utility stage
        stage1, stage1_exit, rest = (), "skipped", eligible
    else:
        order, stage1_exit = stage(
            weight_removal_function(instance, b, sigma), eligible)
        stage1, rest = tuple(order.picks), order.remaining

    if stage1_exit == "goal":
        stage2, stage2_exit = (), "skipped"
    elif not rest:
        stage2, stage2_exit = (), "empty"
    else:
        # the utility gained by anchoring a set, from stage 1's anchors on
        order, stage2_exit = stage(anchored_gain.rooted_at(state), rest)
        stage2 = tuple(order.picks)

    return InvocationTrace(
        entry=b,
        sigma=sigma,
        budget=budget,
        stage1_items=stage1,
        stage2_items=stage2,
        stage1_exit=stage1_exit,
        stage2_exit=stage2_exit,
        final=anchored(b, stage1 + stage2, sigma),
        entry_value=gb,
        final_value=gb + gain,
    )


class MixedGreedyStrategy(Strategy):
    """The backbone policy: replays invocation plans, descending into a
    fresh invocation whenever an observed state leaves the current backbone
    or the backbone ends.

    `plans` maps each invocation's entry to its InvocationTrace, in the
    order first visited (the root first).  Answering b with item i at
    position k of frame F's plan keeps (F, k) in `resume` for each child
    b+(i, s) until it is read, and the child's replay starts there: from
    the root it would reach (F, k) through the same frames, having read
    only items set in b.  Any other b replays from the root.
    """

    def __init__(self, instance: ScenarioInstance):
        self.instance = instance
        self.plans: dict = {}
        self.resume: dict = {}

    def next_item(self, b):
        g = self.instance.utility
        frame, k = self.resume.pop(b, None) or (empty_partial(len(b)), 0)
        while True:
            # a planned frame is below the goal: invocation_plan refuses others
            trace = self.plans.get(frame)
            if trace is None:
                if g.value(frame) == g.goal:
                    return None
                trace = self.plans[frame] = invocation_plan(self.instance, frame)
            for k, i in enumerate(trace.plan[k:], k):
                if b[i] == UNKNOWN:
                    for s in g.alphabet:
                        self.resume[extend(b, i, s)] = frame, k
                    return i
                if b[i] != trace.sigma[i]:
                    break
            # off the backbone at plan[k], or past its end (b agrees with
            # sigma there: trace.final); plans are never empty
            frame, k = anchored(frame, trace.plan[:k + 1], b), 0


def mixed_greedy(instance: ScenarioInstance, traces: list | None = None):
    """The backbone policy as an explicit decision tree.

    `traces`, if given, collects the InvocationTrace of every invocation,
    the root first.  The returned tree reaches the goal on every full
    realization, not only on sample rows.
    """
    strategy = MixedGreedyStrategy(instance)
    tree = materialize(strategy, instance.alphabet, instance.n)
    if traces is not None:
        traces.extend(strategy.plans.values())
    return tree


def combined_count_instance(instance: ScenarioInstance) -> ScenarioInstance:
    """Same sample and costs, utility OR-combined with row-count elimination."""
    return ScenarioInstance(
        scenario_count_utility(instance.utility, instance.sample),
        instance.sample,
        instance.costs,
        instance.alphabet,
    )


def scenario_mixed_greedy(instance: ScenarioInstance) -> SuffixedStrategy:
    """Backbone builder on the count-elimination combination, then a fixed
    index-order suffix on paths where the original goal is still unmet."""
    combined = combined_count_instance(instance)
    return SuffixedStrategy(MixedGreedyStrategy(combined), instance.utility)


def scenario_mixed_greedy_tree(instance: ScenarioInstance, traces=None):
    """Explicit-tree form of the scenario wrapper; `traces` as in
    `mixed_greedy`, for the backbone policy on the combined utility."""
    strategy = scenario_mixed_greedy(instance)
    tree = materialize(strategy, instance.alphabet, instance.n)
    if traces is not None:
        traces.extend(strategy.base.plans.values())
    return tree


class InducedUtility(UtilityFunction):
    """The original utility read through a fixed partial realization: free
    items are renumbered 0..n'-1, fixed items keep their observed states.
    The state is the original utility's partial realization, and the
    monotone certificate is the original utility's."""

    def __init__(self, g: UtilityFunction, b):
        self.base_utility = g
        self.fixed = b
        self.item_map = free_items(b)  # new index -> original index
        super().__init__(len(self.item_map), g.goal, g.alphabet)
        self.level = g.value
        self.monotone = g.monotone

    def root(self):
        return self.fixed

    def step(self, state, j, s):
        return extend(state, self.item_map[j], s)

    def state_of(self, d):
        merged = list(self.fixed)
        for j, s in enumerate(d):
            if s != UNKNOWN:
                merged[self.item_map[j]] = s
        return tuple(merged)


def induced_instance(instance: ScenarioInstance, b) -> ScenarioInstance:
    """Sub-instance over the free items of b: consistent rows restricted and
    reweighted as-is, costs restricted, goal unchanged.

    When b observes no item this is the instance itself: the restriction
    would have the same utility values, the same rows in the same order and
    the same costs, so the root audit's oracle reads the utility's memo."""
    frees = free_items(b)
    if len(frees) == instance.n:
        return instance
    rows, _ = instance.sample.consistent_rows(b)
    restricted = tuple(
        (tuple(a[i] for i in frees), w) for a, w in rows
    )
    return ScenarioInstance(
        InducedUtility(instance.utility, b),
        WeightedSample(restricted),
        CostVector(tuple(instance.costs[i] for i in frees)),
        instance.alphabet,
    )


@dataclass(frozen=True)
class BackboneAudit:
    """Replay of one invocation with its analysis quantities and checks."""

    trace: InvocationTrace
    reach_probabilities: tuple
    backbone_expected_cost: Fraction  # probability-weighted backbone cost
    stage1_cost: Fraction | None
    optimal_cost: Fraction | None  # induced-instance optimum, None if skipped
    status: str  # "ok" or "skipped"

    @property
    def within_24_optimal(self):
        if self.status != "ok":
            return None
        return self.backbone_expected_cost <= 24 * self.optimal_cost

    @property
    def within_3_stage1(self):
        if self.stage1_cost is None:
            return None
        return self.backbone_expected_cost <= 3 * self.stage1_cost


def stage_progress_holds(trace: InvocationTrace, goal: int) -> bool:
    """Final utility gained at least one ninth of the remaining distance."""
    remaining = goal - trace.entry_value
    return 9 * (trace.final_value - trace.entry_value) >= remaining


def backbone_audit(instance: ScenarioInstance, b=None) -> BackboneAudit:
    """Audit one invocation: reach probabilities, backbone cost, schedule
    costs, and the comparison against the induced-instance optimum."""
    if b is None:
        b = empty_partial(instance.n)
    trace = invocation_plan(instance, b)
    costs = instance.costs
    # the job reads the removed mass as a share of W_b: h(r)/W_b
    h = weight_removal_function(instance, b, trace.sigma)
    mask = h.root()
    wb = instance.sample.mass(mask)

    if wb == 0:
        probs = tuple(Fraction(0) for _ in trace.plan)
        return BackboneAudit(
            trace, probs, Fraction(0), None, Fraction(0), "ok"
        )

    probs = []
    c_y = Fraction(0)
    for i in trace.plan:
        p = Fraction(instance.sample.mass(mask), wb)
        probs.append(p)
        c_y += p * costs[i]
        mask = h.add(mask, i)

    job = make_job(h, costs, scale=wb)
    stage1_sched = full_cost_schedule(trace.stage1_items, costs)
    backbone_sched = full_cost_schedule(trace.plan, costs)
    stage1_cost = schedule_cost(job, stage1_sched)
    full_cost = schedule_cost(job, backbone_sched)
    assert full_cost == c_y, "backbone cost must equal its schedule cost"

    try:
        _, opt = optimal_tree(induced_instance(instance, b))
        status = "ok"
    except OracleBudgetError:
        opt = None
        status = "skipped"
    return BackboneAudit(
        trace, tuple(probs), c_y, stage1_cost, opt, status
    )


#: `log_upper_bound` rounds up to a multiple of 2^-LOG_BITS.
LOG_BITS = 64


def _ln_units(num: int, den: int, bits: int) -> int:
    """An upper bound on ln(num/den) in units of 2^-bits, for
    den <= num <= 2·den.

    ln x = Σ_j 2·y^(2j+1)/(2j+1) with y = (x-1)/(x+1) <= 1/3, and the terms
    from the j-th on sum to at most 2·y^(2j+1)/((2j+1)(1-y²)).  Every
    quantity is an integer count of units rounded up (y and y² as well), so
    each stays above its exact value: the partial sum plus that tail bound
    is an upper bound, returned once the tail is down to one unit.
    """
    one = 1 << bits
    y = -(-(num - den << bits) // (num + den))
    y2 = -(-y * y // one)
    total = 0
    term = 2 * y  # 2·y^(2j+1)
    j = 0
    while True:
        tail = -(-term * one // ((2 * j + 1) * (one - y2)))
        if tail <= 1:
            return total + tail
        total += -(-term // (2 * j + 1))
        term = -(-term * y2 // one)
        j += 1


def log_upper_bound(q: int) -> Fraction:
    """An upper bound on the natural log of q, proved in exact integers.

    With q = 2^k·r and 1 <= r < 2, ln q = k·ln 2 + ln r.  Each logarithm is
    bounded by the atanh series of `_ln_units` in units of 2^-bits, with
    16 + log2(k+1) guard bits beyond LOG_BITS, and the sum is rounded up to
    a multiple of 2^-LOG_BITS; the bound exceeds ln q by less than 2^-63
    (`tests/test_mixedgreedy.py` checks it against 50-digit logarithms).
    It is exact where ln q is rational: log_upper_bound(1) == 0.
    """
    if q < 1:
        raise PreconditionError("log bound needs q >= 1")
    k = q.bit_length() - 1
    bits = LOG_BITS + 16 + k.bit_length()
    units = k * _ln_units(2, 1, bits) + _ln_units(q, 1 << k, bits)
    return Fraction(-(-units >> (bits - LOG_BITS)), 1 << LOG_BITS)


def ratio_ceiling(eta: Fraction, goal: int):
    """Guaranteed bound on expected-cost/optimal for the backbone builder:
    1 + 24 * ln(goal) / eta.  None when eta is 0 (the guarantee is vacuous).
    """
    if eta <= 0:
        return None
    return 1 + 24 * log_upper_bound(goal) / Fraction(eta)
