"""Utility families, combinators, and the exhaustive property checkers."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from scencover.core import (
    MAX_CHECK_SPACE,
    UNKNOWN,
    OracleBudgetError,
    PreconditionError,
    StateAlphabet,
    WeightedSample,
    empty_partial,
    enumerate_partials,
    extend,
    free_items,
    set_items,
)
from scencover.generate import (
    default_alphabet,
    random_coverage_descriptor,
    random_instance,
    random_sample,
)
from scencover.mixedgreedy import InducedUtility
from scencover.serialize import build_utility
from scencover.utility import (
    BINARY,
    CountEliminationUtility,
    CoverageUtility,
    KOfNUtility,
    OrUtility,
    TableUtility,
    WeightEliminationUtility,
    check_adaptive_submodular,
    check_monotone,
    check_submodular,
    expected_marginal,
    level_table,
    marginal,
    min_progress_ratio,
    partial_table,
    scenario_count_utility,
    scenario_weight_utility,
    worst_state,
)
from conftest import (
    FAMILIES,
    instance_stream,
    reference_check_adaptive_submodular,
    reference_check_monotone,
    reference_check_submodular,
    reference_level_table,
    reference_min_progress_ratio,
    reference_partial_table,
    reference_one_step_adaptive_submodular,
    reference_one_step_submodular,
    seeded_table_instance,
)

U = UNKNOWN

SAMPLE = WeightedSample(
    ((("0", "0"), 1), (("0", "1"), 2), (("1", "1"), 3))
)


def random_coverage(rng, n, alphabet, universe_size=4):
    """A random coverage utility, built from its drawn descriptor."""
    descriptor = random_coverage_descriptor(rng, n, alphabet, universe_size)
    return build_utility(descriptor, n, alphabet, None)


def constant_utility(n, value=1):
    table = {b: value for b in itertools.product(("0", "1", U), repeat=n)}
    return TableUtility(table, value, n, BINARY)


def test_marginal_constant():
    g = constant_utility(2)
    assert marginal(g, (U, U), 0, "1") == 0


def test_marginal_k_of_n():
    g = KOfNUtility(3, 2)
    # direct evaluation of the closed form
    assert marginal(g, (U, U, U), 0, "1") == g.value(("1", U, U)) - g.value((U, U, U))
    assert g.value(("1", U, U)) - g.value((U, U, U)) == 2


def test_marginal_nonnegative_when_monotone():
    g = KOfNUtility(3, 2)
    for b in enumerate_partials(BINARY, 3):
        for i in free_items(b):
            for s in BINARY:
                assert marginal(g, b, i, s) >= 0


def test_worst_state_constant_tiebreak():
    g = constant_utility(2)
    assert worst_state(g, (U, U), 0) == "0"


def test_worst_state_k_of_n():
    g = KOfNUtility(3, 2)
    b = ("1", U, U)
    d0 = marginal(g, b, 1, "0")
    d1 = marginal(g, b, 1, "1")
    expected = "0" if d0 <= d1 else "1"
    assert worst_state(g, b, 1) == expected


def test_worst_state_rewarding_one():
    # only state "1" ever gains: worst is "0"
    covers = {(i, s): frozenset({0} if s == "1" else set())
              for i in range(2) for s in BINARY}
    covers[(1, "0")] = frozenset({0})  # keep goal reachable on every realization
    g = CoverageUtility(covers, 1, 2, BINARY)
    assert worst_state(g, (U, U), 0) == "0"


def test_or_combine_values():
    g1 = KOfNUtility(2, 1)  # Q1 = 2
    g2 = CountEliminationUtility(SAMPLE, 2, BINARY)  # Q2 = 3
    g = OrUtility(g1, g2)
    assert g.goal == 6
    for b in enumerate_partials(BINARY, 2):
        v1, v2 = g1.value(b), g2.value(b)
        assert g.value(b) == 6 - (2 - v1) * (3 - v2)
        if v1 == 2:
            assert g.value(b) == 6
        if v1 == 0 and v2 == 0:
            assert g.value(b) == 0
    # hand-picked point of the formula: Q1=2, Q2=3, g1=1, g2=1 -> 4
    b = ("0", U)
    assert (g1.value(b), g2.value(b)) == (1, 1)
    assert g.value(b) == 4


def test_count_elimination():
    h = CountEliminationUtility(SAMPLE, 2, BINARY)
    assert h.goal == 3
    assert h.value((U, U)) == 0
    assert h.value(("0", U)) == 1  # 3 rows - 2 consistent
    assert h.value(("1", "0")) == 3  # full realization not in the sample


def test_weight_elimination():
    h = WeightEliminationUtility(SAMPLE, 2, BINARY)
    assert h.goal == 6
    assert h.value((U, U)) == 0
    assert h.value(("0", U)) == 3  # 6 - 3
    assert h.value(("1", "0")) == 6


def test_scenario_combinations_compose():
    g = KOfNUtility(2, 1)
    gs = scenario_count_utility(g, SAMPLE)
    gw = scenario_weight_utility(g, SAMPLE)
    hs = CountEliminationUtility(SAMPLE, 2, BINARY)
    hw = WeightEliminationUtility(SAMPLE, 2, BINARY)
    assert gs.goal == 2 * 3 and gw.goal == 2 * 6
    for b in enumerate_partials(BINARY, 2):
        assert gs.value(b) == 6 - (2 - g.value(b)) * (3 - hs.value(b))
        assert gw.value(b) == 12 - (2 - g.value(b)) * (6 - hw.value(b))


def test_k_of_n_values():
    g = KOfNUtility(3, 2)
    assert g.goal == 4
    assert g.value(("1", "1", U)) == 4
    assert g.value((U, U, U)) == 0
    assert g.value(("0", "0", U)) == 4  # two zeros reach n-k+1
    with pytest.raises(PreconditionError):
        KOfNUtility(3, 0)
    with pytest.raises(PreconditionError):
        KOfNUtility(3, 4)


def test_check_monotone():
    assert check_monotone(CountEliminationUtility(SAMPLE, 2, BINARY)).ok
    assert check_monotone(constant_utility(2)).ok
    # count of unknown entries is anti-monotone
    table = {b: sum(1 for s in b if s == U)
             for b in itertools.product(("0", "1", U), repeat=2)}
    bad = TableUtility(table, 2, 2, BINARY)
    report = check_monotone(bad)
    assert not report.ok and report.witness is not None
    b, i, s = report.witness
    assert bad.value(extend(b, i, s)) < bad.value(b)


def test_monotone_certificates_hold_on_every_family():
    # every generated family, and its g_S and g_W combinations, is certified
    # monotone by construction, and the exhaustive checker agrees
    families = set()
    for family in FAMILIES:
        for seed in range(4):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            states = 2 if family == "k_of_n" else rng.randint(2, 3)
            inst, _ = random_instance(rng, n=n, num_states=states,
                                      sample_size=rng.randint(1, 6),
                                      family=family,
                                      universe_size=rng.randint(2, 5))
            g = inst.utility
            for combined in (g, scenario_count_utility(g, inst.sample),
                             scenario_weight_utility(g, inst.sample)):
                assert combined.monotone, (family, seed)
                assert check_monotone(combined).ok, (family, seed)
            families.add(family)
    assert families == set(FAMILIES)


def test_monotone_certificate_holds_on_tables_and_combinations():
    # a table, rarely monotone, and its g_S and g_W combinations claim the
    # certificate only where the exhaustive checker confirms it
    refuted = 0
    for seed in range(40):
        inst = seeded_table_instance(seed)
        g = inst.utility
        for combined in (g, scenario_count_utility(g, inst.sample),
                         scenario_weight_utility(g, inst.sample)):
            ok = check_monotone(combined).ok
            assert ok or not combined.monotone, seed
            refuted += not ok
    assert refuted > 0


def test_monotone_certificate_claims_nothing_for_tables():
    # a table certifies nothing, even a monotone one, and an OR or an
    # induced utility certifies only what its operands do
    rng = random.Random(3)
    table = constant_utility(2)
    assert check_monotone(table).ok and not table.monotone
    coverage = random_coverage(rng, 2, BINARY)
    assert coverage.monotone and KOfNUtility(2, 1).monotone
    assert not OrUtility(coverage, table).monotone
    assert not OrUtility(table, coverage).monotone
    assert not scenario_count_utility(table, SAMPLE).monotone
    assert OrUtility(coverage, coverage).monotone
    assert CountEliminationUtility(SAMPLE, 2, BINARY).monotone
    assert WeightEliminationUtility(SAMPLE, 2, BINARY).monotone
    assert InducedUtility(coverage, (U, "1")).monotone
    assert not InducedUtility(table, (U, "1")).monotone


def test_check_submodular():
    assert check_submodular(KOfNUtility(3, 2)).ok
    g = OrUtility(
        KOfNUtility(2, 1), CountEliminationUtility(SAMPLE, 2, BINARY)
    )
    assert check_submodular(g).ok
    # value 1 only when both items observed at "1": supermodular
    table = {b: 1 if b == ("1", "1") else 0
             for b in itertools.product(("0", "1", U), repeat=2)}
    report = check_submodular(TableUtility(table, 1, 2, BINARY))
    assert not report.ok and report.witness is not None


def test_check_adaptive_submodular_violation():
    # gains invert after observing item 1: the conditional expectation at the
    # finer partial realization strictly exceeds the coarser one
    table = {b: 0 for b in itertools.product(("0", "1", U), repeat=2)}
    table[("1", "1")] = 2
    g = TableUtility(table, 2, 2, BINARY)
    sample = WeightedSample(((("0", "0"), 1), (("0", "1"), 1), (("1", "1"), 1)))
    report = check_adaptive_submodular(g, sample)
    assert not report.ok and report.witness is not None
    # no row: every partial realization weighs 0 and every pair is skipped
    assert check_adaptive_submodular(g, WeightedSample(())).ok
    with pytest.raises(PreconditionError):
        check_adaptive_submodular(g, WeightedSample(((("0",), 1),)))


def test_check_adaptive_submodular_g_w():
    for _, inst, _ in instance_stream(15, base_seed=900, max_n=3, max_rows=5,
                                      families=("coverage", "k_of_n")):
        gw = scenario_weight_utility(inst.utility, inst.sample)
        assert check_adaptive_submodular(gw, inst.sample).ok


def near_coverage_case(seed):
    """A coverage utility's table with 0-2 entries redrawn, and a random
    sample: near enough to coverage that both verdicts occur."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    alphabet = StateAlphabet(("a", "b", "c")[:rng.randint(2, 3)])
    g = random_coverage(rng, n, alphabet, rng.randint(1, 4))
    table = {b: g.value(b) for b in enumerate_partials(alphabet, n)}
    for b in rng.sample(sorted(table), rng.randint(0, 2)):
        table[b] = rng.randint(0, g.goal)
    sample = random_sample(rng, alphabet, n, rng.randint(1, 6))
    return TableUtility(table, g.goal, n, alphabet), sample


def one_item_extension(b, b2):
    """True iff b2 sets exactly one item that b leaves unknown."""
    changed = [k for k, (s, s2) in enumerate(zip(b, b2)) if s != s2]
    return len(changed) == 1 and b[changed[0]] == U


def test_one_step_checkers_match_all_pairs_reference():
    verdicts = Counter()
    for seed in range(1000):
        g, sample = near_coverage_case(seed)
        report = check_submodular(g)
        assert report.ok == reference_check_submodular(g).ok, seed
        verdicts["submodular", report.ok] += 1
        if not report.ok:
            b, b2, i, s = report.witness
            assert one_item_extension(b, b2) and b2[i] == U
            assert marginal(g, b, i, s) < marginal(g, b2, i, s)
        report = check_adaptive_submodular(g, sample)
        assert report.ok == reference_check_adaptive_submodular(g, sample).ok, seed
        verdicts["adaptive", report.ok] += 1
        if not report.ok:
            b, b2, i = report.witness
            assert one_item_extension(b, b2) and b2[i] == U
            assert sample.weight_of(b2) > 0
            assert (expected_marginal(g, sample, b, i)
                    < expected_marginal(g, sample, b2, i))
    # every verdict occurs often
    assert min(verdicts.values()) >= 100 and len(verdicts) == 4


def checkers_match_one_step_references(g, sample):
    """Run the three checkers on (g, sample), asserting each report, verdict
    and witness, equal to its one-step reference read through `value`;
    returns the verdicts."""
    reports = (check_monotone(g), check_submodular(g),
               check_adaptive_submodular(g, sample))
    references = (reference_check_monotone(g), reference_one_step_submodular(g),
                  reference_one_step_adaptive_submodular(g, sample))
    assert reports == references
    return tuple(report.ok for report in reports)


def test_checkers_match_one_step_references():
    failures = Counter()
    for seed in range(1000):
        verdicts = checkers_match_one_step_references(*near_coverage_case(seed))
        failures.update(k for k, ok in enumerate(verdicts) if not ok)
    # every checker fails often, so the witnesses are compared often
    assert min(failures[k] for k in range(3)) >= 100
    families = set()
    for _, inst, descriptor in instance_stream(60, base_seed=1500, max_n=4,
                                               max_rows=6):
        families.add(descriptor["kind"])
        checkers_match_one_step_references(inst.utility, inst.sample)
    assert families == set(FAMILIES)


def test_check_submodular_value_calls_bounded():
    # one level per distinct state and one step per partial realization but
    # the empty one, and no read of the value memo
    s, n = 2, 6
    g = random_coverage(random.Random(6), n, BINARY)
    distinct = len({g.state_of(b) for b in enumerate_partials(BINARY, n)})
    calls = Counter()

    def count(name):
        method = getattr(g, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        setattr(g, name, counted)

    for name in ("step", "level", "value"):
        count(name)
    assert check_submodular(g).ok
    assert dict(calls) == {"level": distinct, "step": (s + 1) ** n - 1}


def _brute_rho(g):
    """Independent minimization used to cross-check min_progress_ratio."""
    best = None
    for b in enumerate_partials(g.alphabet, g.n):
        gap = g.goal - g.value(b)
        if gap <= 0:
            continue
        for i in free_items(b):
            deltas = [(marginal(g, b, i, s), s) for s in g.alphabet]
            worst = min(deltas, key=lambda p: (p[0], g.alphabet.index(p[1])))[1]
            for d, s in deltas:
                if s != worst:
                    r = Fraction(d, gap)
                    best = r if best is None or r < best else best
    return best


def test_min_progress_ratio_half_coverage():
    # item 0: state "1" covers the whole universe, state "0" covers half;
    # item 1 always covers its element -> the minimizing move gains 1 of 2
    covers = {
        (0, "0"): frozenset({0}),
        (0, "1"): frozenset({0, 1}),
        (1, "0"): frozenset({1}),
        (1, "1"): frozenset({1}),
    }
    g = CoverageUtility(covers, 2, 2, BINARY)
    report = min_progress_ratio(g)
    assert report.ratio == Fraction(1, 2)
    assert report.ratio == _brute_rho(g)
    assert report.floor == Fraction(1, 9)
    b, i, s = report.witness
    assert Fraction(marginal(g, b, i, s), g.goal - g.value(b)) == report.ratio


def test_min_progress_ratio_matches_brute_force():
    for _, inst, _ in instance_stream(20, base_seed=300, max_n=3, max_rows=4):
        try:
            report = min_progress_ratio(inst.utility)
        except PreconditionError:
            assert _brute_rho(inst.utility) is None
            continue
        assert report.ratio == _brute_rho(inst.utility)
        assert 0 <= report.ratio <= 1


def rho_matching_reference(g):
    """min_progress_ratio(g), asserted equal in ratio and witness to the
    `Fraction` reference; None when both find no triple."""
    try:
        report = min_progress_ratio(g)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            reference_min_progress_ratio(g)
        return None
    reference = reference_min_progress_ratio(g)
    assert (report.ratio, report.witness) == (reference.ratio, reference.witness)
    return report


def test_min_progress_ratio_matches_reference_on_families():
    families = set()
    for _, inst, descriptor in instance_stream(60, base_seed=700, max_n=4,
                                               max_rows=6):
        families.add(descriptor["kind"])
        rho_matching_reference(inst.utility)
    assert families == set(FAMILIES)


def random_table(rng, n, alphabet, goal):
    """A table of values in 0..goal drawn from few levels, so that gains are
    often negative and states often tie."""
    levels = sorted({0, goal, rng.randint(0, goal), rng.randint(0, goal)})
    return TableUtility(
        {b: rng.choice(levels)
         for b in enumerate_partials(alphabet, n)},
        goal, n, alphabet)


def test_min_progress_ratio_matches_reference_on_tables():
    negative = tied = 0
    for seed in range(150):
        rng = random.Random(seed)
        alphabet = StateAlphabet(("a", "b", "c")[:rng.randint(2, 3)])
        g = random_table(rng, rng.randint(1, 3), alphabet, rng.randint(1, 6))
        report = rho_matching_reference(g)
        if report is None:
            continue
        negative += report.ratio < 0
        b, i, _ = report.witness
        gains = [marginal(g, b, i, s) for s in alphabet]
        tied += len(set(gains)) < len(gains)
    assert negative > 0 and tied > 0


def test_goal_verification():
    assert KOfNUtility(3, 2).verify_goal_on_full()
    table = {b: 0 for b in itertools.product(("0", "1", U), repeat=2)}
    assert not TableUtility(table, 1, 2, BINARY).verify_goal_on_full()


def test_table_refuses_a_value_above_the_goal():
    table = {b: 1 for b in itertools.product(("0", "1", U), repeat=2)}
    table[("0", U)] = 3
    with pytest.raises(PreconditionError,
                       match=r"table value 3 at \('0', '\*'\) exceeds "
                             r"the goal 2"):
        TableUtility(table, 2, 2, BINARY)
    table[("0", U)] = 2
    assert TableUtility(table, 2, 2, BINARY).value(("0", U)) == 2


def test_table_must_list_every_partial():
    # a table built in code is checked as the parser checks a file's, not
    # left to fail with a KeyError on the first missing partial it reads
    with pytest.raises(PreconditionError,
                       match="table lists 1 of the 9 partial realizations"):
        TableUtility({("0", "1"): 2}, 2, 2, BINARY)
    # nine keys, one of them no partial realization
    table = {b: 2 for b in itertools.product(("0", "1", U), repeat=2)}
    del table[(U, U)]
    table[("0", "2")] = 2
    with pytest.raises(PreconditionError,
                       match="table lists 8 of the 9 partial realizations"):
        TableUtility(table, 2, 2, BINARY)


STATE_FAMILIES = ("coverage", "k_of_n", "table", "induced", "or", "g_S", "g_W",
                  "or_in_g_S", "nested")
OR_FAMILIES = ("or", "g_S", "g_W", "or_in_g_S", "nested")


def family_utility(family, rng, n, alphabet):
    """One utility of the family over n items; "or_in_g_S" is g_S of an OR,
    and "nested" puts the utilities whose state is a partial realization
    (table, induced) inside ORs and eliminations."""

    def coverage(items=n):
        return random_coverage(rng, items, alphabet, rng.randint(1, 5))

    def induced():
        fixed = list(empty_partial(n + 2))
        for i in rng.sample(range(n + 2), 2):
            fixed[i] = rng.choice(alphabet.states)
        return InducedUtility(coverage(n + 2), tuple(fixed))

    sample = random_sample(rng, alphabet, n, rng.randint(1, 8))
    if family == "coverage":
        return coverage()
    if family == "k_of_n":
        return KOfNUtility(n, rng.randint(1, n))
    if family == "table":
        return random_table(rng, n, alphabet, rng.randint(1, 6))
    if family == "induced":
        return induced()
    if family == "or":
        return OrUtility(coverage(), coverage())
    if family == "g_S":
        return scenario_count_utility(coverage(), sample)
    if family == "g_W":
        return scenario_weight_utility(coverage(), sample)
    if family == "or_in_g_S":
        return scenario_count_utility(OrUtility(coverage(), coverage()), sample)
    table = random_table(rng, n, alphabet, rng.randint(1, 6))
    return OrUtility(
        scenario_weight_utility(OrUtility(coverage(), table), sample),
        scenario_count_utility(induced(), sample))


@given(st.sampled_from(STATE_FAMILIES), st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32), st.data())
def test_step_fold_matches_value(family, states, n, seed, data):
    # folding `step` over b's observations, in any order, reaches
    # state_of(b), whose level is value(b)
    alphabet = BINARY if family == "k_of_n" else default_alphabet(states)
    g = family_utility(family, random.Random(seed), n, alphabet)
    b = data.draw(st.tuples(*[st.sampled_from(alphabet.states + (U,))] * n))
    order = data.draw(st.permutations(set_items(b)))
    state = g.root()
    assert state == g.state_of(empty_partial(n))
    for i in order:
        state = g.step(state, i, b[i])
    assert state == g.state_of(b)
    assert g.level(state) == g.value(b)


@given(st.sampled_from(STATE_FAMILIES), st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32))
def test_partial_table_matches_value(family, states, n, seed):
    # the level table and the weight table list value(b) and weight_of(b)
    # in enumeration order; `level_table`, an OR's combined from its
    # operands', equals the row-wise fold of g's own states, an OR's pairs
    # folded by its own step and level
    alphabet = BINARY if family == "k_of_n" else default_alphabet(states)
    rng = random.Random(seed)
    g = family_utility(family, rng, n, alphabet)
    sample = random_sample(rng, alphabet, n, rng.randint(1, 8))
    partials = list(enumerate_partials(alphabet, n))
    assert (level_table(g) == reference_level_table(g)
            == [g.value(b) for b in partials])
    for root, step, finish, expected in (
            (g.root(), g.step, g.level, [g.value(b) for b in partials]),
            (sample.all_rows, sample.step_mask, sample.mass,
             [sample.weight_of(b) for b in partials])):
        finished = []

        def counted(state):
            finished.append(state)
            return finish(state)

        assert partial_table(alphabet, n, root, step, counted) == expected
        # one `finish` per distinct state
        states = reference_partial_table(alphabet, n, root, step, lambda x: x)
        assert len(finished) == len(set(finished)) == len(set(states))


def test_level_table_matches_row_wise_fold_on_every_family():
    families = set()
    for _, inst, descriptor in instance_stream(60, base_seed=900, max_n=4,
                                               max_rows=6):
        families.add(descriptor["kind"])
        g = inst.utility
        reference = reference_level_table(g)
        assert level_table(g) == reference
        assert reference == [g.value(b)
                             for b in enumerate_partials(g.alphabet, g.n)]
    assert families == set(FAMILIES)


def _ors(g):
    """Every `OrUtility` in g's operand tree."""
    if isinstance(g, OrUtility):
        yield g
        yield from _ors(g.left)
        yield from _ors(g.right)


@pytest.mark.parametrize("family", OR_FAMILIES)
def test_level_table_never_steps_or_levels_an_or(family):
    def refuse(*args):
        raise AssertionError("an OR's own step or level was called")

    for seed in range(20):
        rng = random.Random(seed)
        alphabet = default_alphabet(rng.randint(2, 4))
        g = family_utility(family, rng, rng.randint(1, 4), alphabet)
        reference = reference_level_table(g)
        ors = list(_ors(g))
        assert ors
        for node in ors:
            node.step = node.level = refuse
        assert level_table(g) == reference


def test_partial_table_refused_before_any_step():
    def step(state, i, s):
        raise AssertionError("stepped before the budget check")

    # 3^12 partial realizations exceed the budget, 3^11 fit
    with pytest.raises(OracleBudgetError, match=str(MAX_CHECK_SPACE)):
        partial_table(BINARY, 12, 0, step, int)
    assert len(partial_table(BINARY, 11, 0, lambda state, i, s: state,
                             int)) == 3 ** 11
