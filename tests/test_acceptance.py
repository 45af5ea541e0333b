"""Acceptance suite: one test per guarantee, one PASS/FAIL line each.

All comparisons are exact rational inequalities; nothing here tolerates
floating-point slack.  Instance streams are fully seeded, so a reported
failure reproduces from its seed alone.
"""

import itertools
import random
from fractions import Fraction

from scencover.budgeted import ALPHA, wolsey_greedy
from scencover.core import (
    CostVector,
    PreconditionError,
    enumerate_realizations,
    expected_cost,
    extend,
    follow,
    free_items,
    materialize,
    validate_tree,
)
from scencover.generate import random_set_function
from scencover.minsum import (
    check_truncated_bounds,
    full_cost_schedule,
    length,
    make_job,
    schedule_cost,
    standard_greedy,
)
from scencover.mixedgreedy import (
    MixedGreedyStrategy,
    backbone_audit,
    execute_online,
    invocation_plan,
    mixed_greedy,
    ratio_ceiling,
    scenario_mixed_greedy,
    scenario_mixed_greedy_tree,
    stage_progress_holds,
    weight_removal_function,
    worst_case_realization,
)
from scencover.adaptivegreedy import scenario_adaptive_greedy
from scencover.oracle import optimal_budgeted, optimal_schedule, optimal_tree
from scencover.utility import (
    KOfNUtility,
    check_adaptive_submodular,
    min_progress_ratio,
    scenario_count_utility,
    scenario_weight_utility,
)
from conftest import (
    concat,
    instance_stream,
    is_extension,
    job_after,
    reference_mixed_greedy,
    seeded_budgeted,
)

BASE_FAMILIES = ("coverage", "k_of_n", "or")


def report(number, title, violations, extra=""):
    verdict = "PASS" if not violations else "FAIL"
    suffix = (" [%s]" % extra) if extra else ""
    print("%s criterion %d: %s%s" % (verdict, number, title, suffix))
    assert not violations, violations[:5]


def solver_trees(instance):
    yield "mixed", mixed_greedy(instance)
    yield "scenario-mixed", scenario_mixed_greedy_tree(instance)
    yield "scenario-adaptive", materialize(
        scenario_adaptive_greedy(instance), instance.alphabet, instance.n
    )


def test_criterion_1_validity():
    violations = []
    for seed, inst, _ in instance_stream(200, base_seed=1000):
        for name, tree in solver_trees(inst):
            if validate_tree(tree, inst).status != "ok":
                violations.append((seed, name))
    report(1, "all three solvers valid on 200 seeded instances", violations)


def test_criterion_2_mixed_greedy_ratio():
    violations = []
    checked = vacuous = 0
    for seed, inst, _ in instance_stream(200, base_seed=1000):
        tree = mixed_greedy(inst)
        _, optimum = optimal_tree(inst)
        try:
            eta = min_progress_ratio(inst.utility).floor
        except PreconditionError:
            vacuous += 1
            continue
        ceiling = ratio_ceiling(eta, inst.goal)
        if ceiling is None or optimum == 0:
            vacuous += 1
            continue
        checked += 1
        if expected_cost(tree, inst) > ceiling * optimum:
            violations.append(seed)
    report(2, "tree cost within 1 + 24(1/eta)ln(goal) of optimal",
           violations, "%d checked, %d vacuous" % (checked, vacuous))


def test_criterion_3_backbone_bounds():
    violations = []
    audited = 0
    for seed, inst, _ in instance_stream(200, base_seed=1000):
        traces: list = []
        mixed_greedy(inst, traces=traces)
        # audit every invocation on the first quarter, the root elsewhere
        entries = [t.entry for t in traces] if seed < 1050 else [traces[0].entry]
        for entry in entries:
            audit = backbone_audit(inst, b=entry)
            if audit.status != "ok":
                continue
            audited += 1
            if audit.within_24_optimal is False:
                violations.append((seed, entry, "24x"))
            if audit.within_3_stage1 is False:
                violations.append((seed, entry, "3x"))
    report(3, "backbone cost <= 24*optimal and <= 3*stage-1 schedule cost",
           violations, "%d invocations audited" % audited)


def test_criterion_4_stage_progress():
    violations = []
    qualifying = 0
    for seed, inst, _ in instance_stream(200, base_seed=1000):
        traces: list = []
        mixed_greedy(inst, traces=traces)
        combined_traces: list = []
        scenario_mixed_greedy_tree(inst, traces=combined_traces)
        goals = [inst.goal] * len(traces)
        goals += [inst.goal * inst.sample.size] * len(combined_traces)
        for trace, goal in zip(traces + combined_traces, goals):
            if trace.stage1_exit == "budget" and trace.stage2_exit == "budget":
                qualifying += 1
                if not stage_progress_holds(trace, goal):
                    violations.append((seed, trace.entry))
    report(4, "budget-exit invocations gain 1/9 of the remaining goal",
           violations, "%d qualifying invocations" % qualifying)


def test_criterion_5_count_combination_progress_floor():
    violations = []
    for seed, inst, _ in instance_stream(100, base_seed=2000,
                                         families=BASE_FAMILIES):
        combined = scenario_count_utility(inst.utility, inst.sample)
        ratio = min_progress_ratio(combined).ratio
        if ratio < Fraction(1, 2):
            violations.append((seed, ratio))
    report(5, "count-elimination combination has progress ratio >= 1/2",
           violations)


def test_criterion_6_weight_combination_adaptive_submodular():
    violations = []
    for seed, inst, _ in instance_stream(100, base_seed=3000, max_n=4,
                                         families=BASE_FAMILIES):
        combined = scenario_weight_utility(inst.utility, inst.sample)
        if not check_adaptive_submodular(combined, inst.sample).ok:
            violations.append(seed)
    report(6, "weight-elimination combination adaptive submodular (n <= 4)",
           violations)


def test_criterion_7_budgeted_greedy_bound():
    violations = []
    if not Fraction(35, 100) < ALPHA < Fraction(36, 100):
        violations.append("alpha outside (0.35, 0.36)")
    for seed in range(500):
        items, f, costs, budget = seeded_budgeted(seed + 4000, max_items=12)
        _, optimum = optimal_budgeted(items, f, costs, budget)
        if f(wolsey_greedy(items, f, costs, budget)) < ALPHA * optimum:
            violations.append(seed)
    report(7, "budgeted greedy reaches alpha of the optimum on 500 instances",
           violations)


def test_criterion_8_schedule_factor_bounds():
    violations = []
    for seed in range(100):
        rng = random.Random(seed + 5000)
        n = rng.randint(2, 6)
        f = random_set_function(rng, n, universe_size=rng.randint(3, 7))
        costs = CostVector(
            tuple(Fraction(rng.randint(1, 5), rng.choice([1, 2]))
                  for _ in range(n))
        )
        items = list(range(n))
        job = make_job(f, costs, items)
        greedy = standard_greedy(items, f, costs)
        greedy_cost = schedule_cost(job, greedy)
        _, best = optimal_schedule(items, f, costs)
        # factor 4 against every cover schedule (min over permutations)
        if greedy_cost > 4 * best:
            violations.append((seed, "factor4"))
        total = length(greedy)
        for num, den in ((1, 4), (1, 2), (1, 1)):
            budget = total * Fraction(num, den)
            if budget == 0:
                continue
            rep = check_truncated_bounds(items, f, costs, budget)
            if not rep.holds_factor4:
                violations.append((seed, budget, "truncated4"))
            if not rep.holds_factor8:
                violations.append((seed, budget, "truncated8"))
    report(8, "greedy schedule factor 4 and truncated 4/8 bounds", violations)


def test_criterion_9_k_of_n_progress_floor():
    violations = []
    for n in range(1, 7):
        for k in range(1, n + 1):
            g = KOfNUtility(n, k)
            try:
                ratio = min_progress_ratio(g).ratio
            except PreconditionError:
                # every single observation meets the goal: no valid triple
                continue
            if ratio < Fraction(1, k):
                violations.append((n, k, ratio))
    report(9, "k-of-n utilities have progress ratio >= 1/k", violations)


def test_criterion_10_cross_checks():
    violations = []

    # online executor vs the explicitly recursed tree on all realizations,
    # n <= 4
    for seed, inst, _ in instance_stream(50, base_seed=6000, max_n=4):
        tree = reference_mixed_greedy(inst)
        policy = MixedGreedyStrategy(inst)
        for a in enumerate_realizations(inst.alphabet, inst.n):
            cost_t, term_t = follow(tree, a, inst.costs)
            _, cost_p, term_p = execute_online(policy, lambda i: a[i], inst.costs)
            if (cost_t, term_t) != (cost_p, term_p):
                violations.append((seed, a, "online-vs-tree"))
                break

    # the audit's job, stage-1 weight removal scaled by W_b, is the share of
    # the consistent mass off the anchors: 1 - W(anchored)/W_b by row scan
    for seed, inst, _ in instance_stream(50, base_seed=6500, max_n=4):
        b = inst.sample.rows[0][0]
        b = tuple("*" for _ in b)  # audit the root entry
        if inst.utility.value(b) >= inst.goal:
            continue
        sigma, _ = worst_case_realization(inst.utility,
                                          inst.utility.state_of(b),
                                          free_items(b))
        rows = [(a, w) for a, w in inst.sample.rows if is_extension(a, b)]
        wb = sum(w for _, w in rows)
        h = weight_removal_function(inst, b, sigma)
        job = make_job(h, inst.costs, scale=inst.sample.weight_of(b))
        frees = list(sigma)
        for size in range(len(frees) + 1):
            for r in itertools.combinations(frees, size):
                anchored = b
                for i in r:
                    anchored = extend(anchored, i, sigma[i])
                kept = sum(w for a, w in rows if is_extension(a, anchored))
                done = full_cost_schedule(r, inst.costs)
                if job.value(done) != 1 - Fraction(kept, wb):
                    violations.append((seed, r, "job-mass-identity"))

    # schedule-cost additivity on 100 random instances
    for seed in range(100):
        rng = random.Random(seed + 7000)
        n = rng.randint(2, 6)
        f = random_set_function(rng, n, universe_size=5)
        costs = CostVector(tuple(Fraction(rng.randint(1, 4)) for _ in range(n)))
        items = list(range(n))
        job = make_job(f, costs, items)
        perm = list(items)
        rng.shuffle(perm)
        cut = rng.randint(0, n)
        prefix = full_cost_schedule(perm[:cut], costs)
        suffix = full_cost_schedule(perm[cut:], costs)
        lhs = schedule_cost(job, prefix) + schedule_cost(job_after(job, prefix), suffix)
        if lhs != schedule_cost(job, concat(prefix, suffix)):
            violations.append((seed, "additivity"))

    report(10, "online/tree agreement, mass-function identity, cost additivity",
           violations)
