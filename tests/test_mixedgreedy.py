"""The two-stage backbone tree builder, its online form, and the audits."""

import collections
import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from scencover.core import (
    UNKNOWN,
    CostVector,
    Leaf,
    Node,
    PreconditionError,
    ScenarioInstance,
    Strategy,
    SuffixedStrategy,
    WeightedSample,
    empty_partial,
    enumerate_realizations,
    expected_cost,
    extend,
    follow,
    free_items,
    materialize,
    validate_tree,
)
from scencover.adaptivegreedy import scenario_adaptive_greedy
from scencover.budgeted import GreedyOrder, find_budget, wolsey_greedy
from scencover.mixedgreedy import (
    MixedGreedyStrategy,
    anchored,
    combined_count_instance,
    backbone_audit,
    execute_online,
    invocation_plan,
    log_upper_bound,
    mixed_greedy,
    ratio_ceiling,
    scenario_mixed_greedy,
    scenario_mixed_greedy_tree,
    induced_instance,
    weight_removal_function,
    worst_case_realization,
)
from scencover.generate import random_instance
from scencover.oracle import optimal_tree
from scencover.utility import (
    BINARY,
    CoverageUtility,
    KOfNUtility,
    OrUtility,
    TableUtility,
    marginal,
    worst_state,
)
from conftest import (
    FAMILIES,
    RootReplayStrategy,
    instance_stream,
    is_extension,
    reference_budget_candidates,
    reference_execute_online,
    reference_induced_instance,
    reference_invocation_plan,
    reference_mixed_greedy,
    reference_scenario_mixed_greedy,
    reference_scenario_mixed_greedy_tree,
    seeded_table_instance,
)

U = UNKNOWN


def unit_costs(n):
    return CostVector((Fraction(1),) * n)


def test_worst_case_realization_constant():
    import itertools

    table = {b: 0 for b in itertools.product(("0", "1", U), repeat=2)}
    for a in itertools.product(("0", "1"), repeat=2):
        table[a] = 1
    g = TableUtility(table, 1, 2, BINARY)
    sigma, anchor_round = worst_case_realization(g, g.state_of((U, U)), (0, 1))
    assert sigma == {0: "0", 1: "0"}  # ties break on alphabet order
    # each anchor's step from b's state, with its gain
    assert anchor_round == {0: (("0", U), 0), 1: ((U, "0"), 0)}


def test_worst_case_realization_k_of_n():
    g = KOfNUtility(3, 2)
    b = (U, U, U)
    state = g.state_of(b)
    sigma, anchor_round = worst_case_realization(g, state, (0, 1, 2))
    for i in range(3):
        assert sigma[i] == worst_state(g, b, i)
        assert anchor_round[i] == (g.step(state, i, sigma[i]),
                                   marginal(g, b, i, sigma[i]))


def test_worst_case_realization_single_free():
    g = KOfNUtility(2, 1)
    sigma, anchor_round = worst_case_realization(g, g.state_of(("1", U)), (1,))
    assert set(sigma) == set(anchor_round) == {1}


def _two_item_instance():
    g = KOfNUtility(2, 1)
    sample = WeightedSample(((("0", "0"), 1), (("0", "1"), 2), (("1", "1"), 1)))
    return ScenarioInstance(g, sample, unit_costs(2), BINARY)


def test_weight_removal_function():
    inst = _two_item_instance()
    sigma = {0: "0", 1: "1"}
    h = weight_removal_function(inst, (U, U), sigma)
    assert h(frozenset()) == 0
    # rows deviating from sigma on {0,1}: (0,0) and (1,1) -> weight 2
    assert h(frozenset({0, 1})) == 2
    # sigma matching no row at all removes everything
    h_off = weight_removal_function(inst, (U, U), {0: "1", 1: "0"})
    assert h_off(frozenset({0, 1})) == inst.sample.total_weight
    # single-row sample lying exactly on sigma: nothing ever deviates
    solo = ScenarioInstance(
        KOfNUtility(2, 1), WeightedSample(((("0", "0"), 5),)),
        unit_costs(2), BINARY,
    )
    h_zero = weight_removal_function(solo, (U, U), {0: "0", 1: "0"})
    for r in (frozenset(), frozenset({0}), frozenset({0, 1})):
        assert h_zero(r) == 0


def test_weight_removal_function_matches_row_definition():
    # the stage-1 objective by its definition, scanning the consistent rows
    for seed, inst, _ in instance_stream(60, base_seed=8100, max_n=4):
        a0 = inst.sample.rows[0][0]
        for b in (empty_partial(inst.n), extend(empty_partial(inst.n), 0, a0[0])):
            if inst.utility.value(b) >= inst.goal:
                continue
            sigma, _ = worst_case_realization(inst.utility,
                                              inst.utility.state_of(b),
                                              free_items(b))
            rows = [(a, w) for a, w in inst.sample.rows if is_extension(a, b)]
            h = weight_removal_function(inst, b, sigma)
            frees = free_items(b)
            for size in range(len(frees) + 1):
                for r in itertools.combinations(frees, size):
                    expected = sum(w for a, w in rows
                                   if any(a[i] != sigma[i] for i in r))
                    assert h(frozenset(r)) == expected, (seed, b, r)


def test_weight_removal_greedy_matches_frozenset_form():
    # the incremental h (row masks) and its frozenset definition give the
    # greedy layer the same picks, values, returned sets and budget
    for seed, inst, _ in instance_stream(40, base_seed=8200):
        b = empty_partial(inst.n)
        if inst.utility.value(b) >= inst.goal:
            continue
        sigma, _ = worst_case_realization(inst.utility,
                                          inst.utility.state_of(b),
                                          free_items(b))
        h = weight_removal_function(inst, b, sigma)
        wb = inst.sample.weight_of(b)

        def plain(r, b=b, sigma=sigma, wb=wb, sample=inst.sample):
            return wb - sample.weight_of(anchored(b, r, sigma))

        items, costs = free_items(b), inst.costs
        orders = GreedyOrder(items, h, costs), GreedyOrder(items, plain, costs)
        for order in orders:
            order.prefix(sum(costs.units))
        assert orders[0].picks == orders[1].picks, seed
        assert orders[0].values == orders[1].values, seed
        if plain(frozenset(items)) > 0:
            assert (find_budget(items, h, costs)
                    == find_budget(items, plain, costs)), seed
        for budget in reference_budget_candidates(items, costs):
            assert (wolsey_greedy(items, h, costs, budget)
                    == wolsey_greedy(items, plain, costs, budget)), seed


def test_mixed_greedy_goal_at_entry():
    inst = _two_item_instance()
    assert mixed_greedy(induced_instance(inst, ("1", U))) == Leaf()


def test_mixed_greedy_single_item():
    g = KOfNUtility(1, 1)
    inst = ScenarioInstance(
        g, WeightedSample(((("1",), 1),)), unit_costs(1), BINARY
    )
    tree = mixed_greedy(inst)
    assert isinstance(tree, Node) and tree.item == 0
    assert all(isinstance(c, Leaf) for c in tree.children.values())


def test_invocation_backbone_items_within_budget():
    for _, inst, _ in instance_stream(25, base_seed=10, max_n=4, max_rows=6):
        traces: list = []
        mixed_greedy(inst, traces=traces)
        for trace in traces:
            for i in trace.plan:
                assert inst.costs[i] <= trace.budget
            if trace.stage1_exit == "budget":
                spent = sum((inst.costs[i] for i in trace.stage1_items),
                            Fraction(0))
                assert spent >= trace.budget


def test_invocation_traces_match_fraction_reference():
    # every invocation of every tree, with budgets at subset sums
    for family in FAMILIES:
        for seed, inst, _ in instance_stream(10, base_seed=4400, max_n=6,
                                             families=(family,)):
            traces: list = []
            mixed_greedy(inst, traces=traces)
            for trace in traces:
                reference = reference_invocation_plan(inst, trace.entry)
                assert trace == reference, (family, seed, trace.entry)
                assert type(trace.budget) is Fraction


def test_saturating_invocations_match_fraction_reference(monkeypatch):
    # the combined utility of scenario-mixed (an OR with row-count
    # elimination, nested twice over g_W) is certified monotone, so a budget
    # search's order of all items stops ranking once it saturates; each
    # invocation still equals the reference's, and the shortcut is taken
    saturated = []
    saturate = GreedyOrder._saturate

    def counted(order):
        saturated.append(len(order.remaining))
        saturate(order)

    monkeypatch.setattr(GreedyOrder, "_saturate", counted)
    families = set()
    for seed, inst, descriptor in instance_stream(40, base_seed=4500,
                                                  max_n=6):
        combined = combined_count_instance(inst)
        assert combined.utility.monotone
        traces: list = []
        scenario_mixed_greedy_tree(inst, traces=traces)
        for trace in traces:
            assert trace == reference_invocation_plan(combined, trace.entry), (
                seed, trace.entry)
        families.add(descriptor["kind"])
    assert families == set(FAMILIES)
    assert saturated


@settings(max_examples=12, deadline=None)
@given(st.integers(21, 22), st.integers(0, 2**32 - 1),
       st.sampled_from(("coverage", "k_of_n", "g_W")))
@example(n=21, seed=0, family="coverage")  # rounding the exit down breaks it
def test_grid_invocation_matches_fraction_reference(n, seed, family):
    # above 20 items the budget is a grid point, which need not be a whole
    # number of cost units: the stage's budget exit must round it up
    rng = random.Random(seed)
    inst, _ = random_instance(rng, n=n, num_states=2,
                              sample_size=rng.randint(1, 40), family=family,
                              universe_size=rng.randint(2, 8))
    root = empty_partial(n)
    trace = invocation_plan(inst, root)
    assert trace == reference_invocation_plan(inst, root)
    step = inst.costs.total() / (1 << 20)
    assert (trace.budget / step).denominator == 1


def test_invocation_plan_requires_unmet_goal():
    inst = _two_item_instance()
    with pytest.raises(PreconditionError):
        invocation_plan(inst, ("1", "0"))


def test_one_invocation_steps_each_anchor_once(monkeypatch):
    # the anchor scan steps b's state once per (free item, state), and the
    # budget search, the full gain and both stages find the anchor steps
    # in the anchored gain's root round.  `step` is wrapped in the classes
    # before any instance is built, so no bound `step` escapes the count,
    # and only the instance utility's own steps from b's state are read
    steps = collections.Counter()
    for cls in (CoverageUtility, OrUtility):
        def counted(self, state, i, s, step=cls.step):
            steps[self, state, i, s] += 1
            return step(self, state, i, s)

        monkeypatch.setattr(cls, "step", counted)
    checked = 0
    for seed, inst, _ in instance_stream(40, base_seed=9900, max_n=7,
                                         families=("coverage", "g_W")):
        g = inst.utility
        root = empty_partial(inst.n)
        for b in (root, extend(root, 0, inst.sample.rows[0][0][0])):
            if g.value(b) >= g.goal:
                continue
            steps.clear()
            invocation_plan(inst, b)
            state = g.state_of(b)
            counts = {(i, s): n for (u, st, i, s), n in steps.items()
                      if u is g and st == state}
            assert counts == {(i, s): 1 for i in free_items(b)
                              for s in inst.alphabet}, (seed, b)
            checked += b != root
    assert checked


def test_table_invocations_match_fraction_reference():
    # on non-monotone tables, whose low levels tie often, every invocation
    # of both backbone solvers equals the reference's, which takes its
    # anchors from `worst_state` and not from the anchor scan.  Where a
    # table's anchors miss the goal or its gain is not submodular, the
    # walk stops at the refused invocation, after those planned before it
    compared = refused = 0
    for seed in range(40):
        inst = seeded_table_instance(seed)
        for solved in (inst, combined_count_instance(inst)):
            strategy = MixedGreedyStrategy(solved)
            try:
                materialize(strategy, solved.alphabet, solved.n)
            except PreconditionError:
                refused += 1
            for trace in strategy.plans.values():
                assert trace == reference_invocation_plan(solved, trace.entry), (
                    seed, trace.entry)
                compared += 1
    assert compared and refused


def test_tree_has_no_repeated_items():
    for _, inst, _ in instance_stream(15, base_seed=60, max_n=4, max_rows=6):
        tree = mixed_greedy(inst)
        for a in enumerate_realizations(inst.alphabet, inst.n):
            follow(tree, a, inst.costs)  # raises on repeats


def test_online_matches_materialized():
    for _, inst, _ in instance_stream(20, base_seed=120, max_n=4, max_rows=6):
        tree = reference_mixed_greedy(inst)
        policy = MixedGreedyStrategy(inst)
        for a in enumerate_realizations(inst.alphabet, inst.n):
            cost_t, term_t = follow(tree, a, inst.costs)
            items, cost_p, term_p = execute_online(
                policy, lambda i: a[i], inst.costs
            )
            assert cost_t == cost_p
            assert term_t == term_p


def test_online_sessions_match_fraction_reference():
    # every policy, on sample rows and on uniform realizations
    policies = (MixedGreedyStrategy, scenario_mixed_greedy,
                scenario_adaptive_greedy)
    sessions = 0
    for seed, inst, _ in instance_stream(30, base_seed=9600, max_n=7):
        rng = random.Random(seed)
        realizations = [a for a, _ in inst.sample.rows[:3]] + [
            tuple(rng.choice(inst.alphabet.states) for _ in range(inst.n))
            for _ in range(3)]
        for policy in policies:
            strategy = policy(inst)
            for a in realizations:
                out = execute_online(strategy, a.__getitem__, inst.costs)
                assert type(out[1]) is Fraction
                assert out == reference_execute_online(
                    policy(inst), a.__getitem__, inst.costs), (seed, a)
                sessions += 1
    assert sessions >= 3 * 30 * 4


class AnswerCheck(Strategy):
    """Asks a policy and its reference at every b, asserting the same item,
    None or refusal; a refused b becomes a leaf, so the walk goes on."""

    def __init__(self, policy, reference):
        self.policy, self.reference = policy, reference
        self.answers = []  # (b, answer) in the order asked

    def next_item(self, b):
        answers = []
        for policy in (self.policy, self.reference):
            try:
                answers.append(policy.next_item(b))
            except PreconditionError as exc:
                answers.append(str(exc))
        assert answers[0] == answers[1], b
        self.answers.append((b, answers[0]))
        return answers[0] if not isinstance(answers[0], str) else None


def test_resumed_replay_answers_like_the_root_replay():
    # at every node of the materialized trees, on generated instances and on
    # non-monotone tables; the replay tests the goal on its frames, not on
    # b, so it may go on past a b that meets the goal
    cases = [inst for _, inst, _ in instance_stream(20, base_seed=9700)]
    cases += [seeded_table_instance(seed) for seed in range(40)]
    past_goal = refusals = 0
    for inst in cases:
        g = inst.utility
        mixed, scenario = MixedGreedyStrategy(inst), scenario_mixed_greedy(inst)
        for policy, reference in ((mixed, RootReplayStrategy(inst)),
                                  (scenario, reference_scenario_mixed_greedy(inst))):
            check = AnswerCheck(policy, reference)
            materialize(check, inst.alphabet, inst.n)
            refusals += sum(isinstance(i, str) for _, i in check.answers)
            past_goal += sum(type(i) is int and g.value(b) == g.goal
                             for b, i in check.answers)
        # every record was read: none outlives the walk
        assert not mixed.resume and not scenario.base.resume
        assert not scenario.finished
    assert past_goal and refusals


def test_anchored_refuses_a_set_item():
    sigma = {0: "1", 2: "0"}
    assert anchored((U, "1", U), (2, 0), sigma) == ("1", "1", "0")
    with pytest.raises(PreconditionError):
        anchored((U, "1", U), (1,), {1: "0"})


def test_trees_match_reference_recursion():
    # materialized policies against the explicit recursion, per family
    for family in FAMILIES:
        for seed, inst, _ in instance_stream(12, base_seed=9300, max_n=5,
                                             families=(family,)):
            root = empty_partial(inst.n)
            for build, reference in (
                (mixed_greedy, reference_mixed_greedy),
                (scenario_mixed_greedy_tree,
                 reference_scenario_mixed_greedy_tree),
            ):
                traces: list = []
                ref_traces: list = []
                assert build(inst, traces=traces) == reference(
                    inst, traces=ref_traces), (family, seed, build.__name__)
                assert ({t.entry for t in traces}
                        == {t.entry for t in ref_traces}), (family, seed)
                assert len(traces) == len(ref_traces)
                if traces:
                    assert traces[0].entry == root


def test_induced_instance_identity_and_restriction():
    inst = _two_item_instance()
    same = induced_instance(inst, (U, U))
    for b in ((U, U), ("0", U), ("0", "1")):
        assert same.utility.value(b) == inst.utility.value(b)
    sub = induced_instance(inst, (U, "1"))
    assert sub.n == 1
    assert sub.sample.rows == ((("0",), 2), (("1",), 1))
    assert sub.utility.value(("0",)) == inst.utility.value(("0", "1"))
    empty = induced_instance(inst, ("0", "1"))
    assert empty.n == 0


def test_root_audit_solves_the_instance_itself():
    # at the root the induced instance is the instance: the oracle answers
    # as it does on the restriction read through `InducedUtility`
    families = set()
    for _, inst, descriptor in instance_stream(40, base_seed=1100):
        families.add(descriptor["kind"])
        root = empty_partial(inst.n)
        assert induced_instance(inst, root) is inst
        tree, cost = optimal_tree(inst)
        assert optimal_tree(reference_induced_instance(inst, root)) == (tree, cost)
        audit = backbone_audit(inst)
        assert audit.status == "ok" and audit.optimal_cost == cost
    assert families == set(FAMILIES)


def test_non_root_audit_solves_the_restriction():
    audited = 0
    for _, inst, _ in instance_stream(20, base_seed=1200, max_n=4):
        b = extend(empty_partial(inst.n), 0, inst.sample.rows[0][0][0])
        sub = induced_instance(inst, b)
        assert sub is not inst and sub.n == inst.n - 1
        assert (optimal_tree(sub)
                == optimal_tree(reference_induced_instance(inst, b)))
        if inst.utility.value(b) < inst.goal:  # an invocation can start at b
            assert backbone_audit(inst, b).optimal_cost == optimal_tree(sub)[1]
            audited += 1
    assert audited >= 10


def test_scenario_mixed_greedy_tree_valid():
    for _, inst, _ in instance_stream(15, base_seed=200, max_n=4, max_rows=6):
        tree = scenario_mixed_greedy_tree(inst)
        assert validate_tree(tree, inst).status == "ok"


def test_scenario_suffix_uses_index_order():
    # off-sample realizations may finish via the ascending-index suffix;
    # the policy remains valid everywhere
    for _, inst, _ in instance_stream(10, base_seed=260, max_n=3, max_rows=2):
        strategy = scenario_mixed_greedy(inst)
        tree = materialize(strategy, inst.alphabet, inst.n)
        assert validate_tree(tree, inst).status == "ok"


def test_backbone_audit_zero_mass_entry():
    # only item 2 matters; the entry partial realization is consistent with
    # no sample row, so every reach probability (and the backbone cost) is 0
    from scencover.utility import CoverageUtility

    covers = {(i, s): frozenset() for i in range(3) for s in BINARY}
    covers[(2, "0")] = covers[(2, "1")] = frozenset({0})
    g = CoverageUtility(covers, 1, 3, BINARY)
    inst = ScenarioInstance(
        g, WeightedSample(((("0", "0", "0"), 1),)), unit_costs(3), BINARY
    )
    audit = backbone_audit(inst, b=("1", U, U))
    assert audit.status == "ok"
    assert audit.backbone_expected_cost == 0
    assert all(p == 0 for p in audit.reach_probabilities)
    assert audit.optimal_cost == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_backbone_audit_skips_a_refused_oracle(family):
    # seven free items exceed the oracle's six: the audit still replays the
    # invocation, but reports no optimum and no 24x verdict
    inst, _ = random_instance(random.Random(7), n=7, family=family)
    audit = backbone_audit(inst)
    assert audit.status == "skipped"
    assert audit.optimal_cost is None and audit.within_24_optimal is None
    assert audit.trace == invocation_plan(inst, empty_partial(7))


def test_backbone_audit_examples():
    inst = _two_item_instance()
    audit = backbone_audit(inst)
    assert audit.status == "ok"
    assert audit.within_24_optimal
    assert audit.within_3_stage1 in (None, True)
    # single-row sample on the anchor path: every reach probability is 1
    g = KOfNUtility(2, 2)
    solo = ScenarioInstance(
        g, WeightedSample(((("0", "0"), 1),)), unit_costs(2), BINARY
    )
    audit_solo = backbone_audit(solo)
    trace = audit_solo.trace
    sigma_row = tuple(trace.sigma[i] for i in sorted(trace.sigma))
    if sigma_row == ("0", "0"):
        assert all(p == 1 for p in audit_solo.reach_probabilities)
        assert audit_solo.backbone_expected_cost == sum(
            (solo.costs[i] for i in trace.plan), Fraction(0)
        )


def test_mixed_greedy_ratio_on_desk_instance():
    for _, inst, _ in instance_stream(10, base_seed=333, max_n=4, max_rows=4):
        from scencover.utility import min_progress_ratio

        tree = mixed_greedy(inst)
        _, opt = optimal_tree(inst)
        try:
            eta = min_progress_ratio(inst.utility).floor
        except PreconditionError:
            continue
        ceiling = ratio_ceiling(eta, inst.goal)
        if ceiling is not None and opt > 0:
            assert expected_cost(tree, inst) / opt <= ceiling


def test_log_upper_bound():
    # above ln q by less than 2^-63, checked against 50-digit logarithms
    qs = (list(range(1, 2001)) + [2 ** k for k in range(101)]
          + [10 ** k for k in range(31)])
    with mpmath.workdps(50):
        for q in qs:
            ub = log_upper_bound(q)
            assert ub.denominator <= 2 ** 64
            gap = mpmath.mpf(ub.numerator) / ub.denominator - mpmath.log(q)
            assert 0 <= gap < mpmath.mpf(2) ** -63, q
    assert log_upper_bound(1) == 0
    with pytest.raises(PreconditionError):
        log_upper_bound(0)


def test_ratio_ceiling_vacuous_at_zero():
    assert ratio_ceiling(Fraction(0), 5) is None
    assert ratio_ceiling(Fraction(1, 9), 1) == 1
