"""The benchmark's three workloads.

Each workload sets itself up in units timed by the harness's clock (their
median is `setup_s`), then hands the harness one cycle of ops at a time.  A cycle is the same
list of ops every time, each started from the same state, so the harness
can time every op once per cycle and keep its best time.  Ops whose inputs
come from fixed seeds, the same in every run, are golden: their exact
outputs are recorded in `golden.json` and averaged into `cost.<alg>`.

Build and certify solve a fixed corpus of generated files twice per cycle:
as generated (the golden pool) and with the items relabelled by a
permutation drawn from the run's seed (the seeded pool).  Relabelling gives
every seed its own files, trees and tie-breaks while keeping the amount of
work per file: fresh draws of the same shape differ up to 15-fold in solve
time, which moved a run's medians by a quarter between seeds.  Serve
replays one fixed trace for every seed.  An op runs its timed work and
returns (per-algorithm seconds, outputs); its `check` then judges the
outputs untimed and returns records and failure messages.

All library calls go through module attributes (`core.validate_tree`,
`mixedgreedy.materialize`, ...) so that the tracer's patches see them.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from scencover import (
    adaptivegreedy,
    core,
    generate,
    mixedgreedy,
    oracle,
    serialize,
    utility,
)

import checks

ALGORITHMS = ("mixed", "scenario-mixed", "scenario-adaptive")

perf = time.perf_counter


@dataclass(frozen=True)
class Op:
    key: str
    alg: str | None  # None: the op runs every algorithm (certify)
    run: Callable[[], tuple]
    check: Callable[[object, Callable], tuple]
    golden: bool  # inputs from fixed seeds: outputs are in golden.json


@dataclass(frozen=True)
class Record:
    """One exact output: compared against the golden file and averaged
    into `cost.<alg>`."""

    key: str
    alg: str | None
    cost: Fraction
    digest: str


class Workload:
    passes = 2  # every run completes at least this many cycles

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir


class Serve(Workload):
    """Online policy sessions on two n=21, m=1000 binary instances.

    One strategy per (instance, algorithm) is built in set-up, including its
    first `next_item`, which crosses `budget_candidates`' 20-item threshold
    for the two backbone strategies.  A cycle replays a fixed trace of
    sessions on strategies copied from the set-up state and reused by every
    session of the cycle, as a service would, so a session finds the plans
    and utility values earlier ones cached.  The trace is the same for every
    seed: with shared caches a session's latency depends on the sessions
    before it, and seeded orders of the same sessions moved the medians by up
    to 2x between runs.
    """

    name = "serve"
    n = 21
    rows = 1000
    families = ("coverage", "g_W")
    # instance of each session: five on coverage, two on g_W, so the median
    # of `mixed` (tens of ms on coverage, hundreds on g_W) lies in one cluster
    slots = (0, 0, 1, 0, 0, 1, 0)
    off_sample_at = 3  # this session draws a uniform, off-sample realization

    def setup(self, clock):
        """One unit per instance: generate it, build its strategies and
        answer each one's first query."""
        self.instances = []
        for family in self.families:
            with clock.unit() as unit:
                rng = random.Random("serve/instance/%s" % family)
                instance, descriptor = generate.random_instance(
                    rng, n=self.n, num_states=2, sample_size=self.rows, family=family)
                strategies = {
                    "mixed": mixedgreedy.MixedGreedyStrategy(instance),
                    "scenario-mixed": mixedgreedy.scenario_mixed_greedy(instance),
                    "scenario-adaptive": adaptivegreedy.scenario_adaptive_greedy(instance),
                }
                root = core.empty_partial(instance.n)
                for strategy in strategies.values():
                    unit.lap()
                    strategy.next_item(root)
            self.instances.append((family, instance, descriptor, strategies))
        self.sessions = self._draw_sessions(random.Random("serve/sessions"))

    def _draw_sessions(self, rng):
        sessions = []
        for k, j in enumerate(self.slots):
            instance = self.instances[j][1]
            rows = instance.sample.rows
            if k == self.off_sample_at:
                on_sample = {a for a, _ in rows}
                while True:
                    a = tuple(rng.choice(instance.alphabet.states)
                              for _ in range(instance.n))
                    if a not in on_sample:
                        break
            else:
                a = rng.choices(rows, weights=[w for _, w in rows])[0][0]
            sessions.append((j, a))
        return sessions

    def cycle(self):
        strategies = [copy.deepcopy(s) for *_, s in self.instances]
        ops = []
        for k, (j, realization) in enumerate(self.sessions):
            family, instance, descriptor, _ = self.instances[j]
            for alg in ALGORITHMS:
                key = "%02d/%s/%s" % (k, family, alg)
                ops.append(self._op(key, alg, strategies[j][alg], instance,
                                    descriptor, realization))
        return ops

    @staticmethod
    def _op(key, alg, strategy, instance, descriptor, realization):
        def run():
            start = perf()
            out = mixedgreedy.execute_online(strategy, realization.__getitem__,
                                             instance.costs)
            return {alg: perf() - start}, out

        def check(outputs, count):
            items, cost, terminal = outputs
            failures = checks.check_session(instance, descriptor, realization,
                                            items, cost, terminal)
            record = Record(key, alg, cost, checks.session_digest(items, cost))
            return [record], ["%s: %s" % (key, f) for f in failures]

        return Op(key, alg, run, check, golden=True)


def solve_tree(instance, alg):
    """Explicit tree for one algorithm, as `scencover solve` builds it."""
    if alg == "mixed":
        return mixedgreedy.mixed_greedy(instance)
    if alg == "scenario-mixed":
        return mixedgreedy.scenario_mixed_greedy_tree(instance)
    strategy = adaptivegreedy.scenario_adaptive_greedy(instance)
    return mixedgreedy.materialize(strategy, instance.alphabet, instance.n)


def tree_outputs(instance, alg):
    """Solve, cost and validate one algorithm: the timed part of a solve."""
    tree = solve_tree(instance, alg)
    cost = core.expected_cost(tree, instance)
    report = core.validate_tree(tree, instance, scope="all")
    return tree, cost, report


def check_tree_outputs(key, alg, instance, descriptor, outputs, count):
    tree, cost, report = outputs
    failures, nodes = checks.check_tree(tree, instance, descriptor)
    count("core.tree_nodes", nodes)
    if report.status != "ok":
        failures.append("validate_tree: %s %s" % (report.status, report.violations[:1]))
    if checks.recomputed_cost(tree, instance) != cost:
        failures.append("expected_cost disagrees with the recomputed cost")
    failures = ["%s: %s" % (key, f) for f in failures]
    return Record(key, alg, cost, checks.tree_digest(tree)), failures


def relabel_descriptor(descriptor, perm):
    """The utility descriptor with item i renamed perm[i] (1-based keys)."""
    kind = descriptor["kind"]
    if kind == "coverage":
        covers = {str(perm[int(item) - 1] + 1): per_state
                  for item, per_state in descriptor["covers"].items()}
        return dict(descriptor, covers=covers)
    if kind == "or":
        return dict(descriptor, left=relabel_descriptor(descriptor["left"], perm),
                    right=relabel_descriptor(descriptor["right"], perm))
    if kind in ("g_S", "g_W"):
        return dict(descriptor, inner=relabel_descriptor(descriptor["inner"], perm))
    if kind == "k_of_n":
        return descriptor  # symmetric in the items
    raise ValueError("cannot relabel utility kind %r" % kind)


def relabel_document(doc, perm):
    """An instance document with item i renamed perm[i]: the same instance
    up to the order of its items."""
    n = doc["n"]
    source = [0] * n  # source[j]: the item that becomes item j
    for i, j in enumerate(perm):
        source[j] = i
    sample = sorted(
        ({"assignment": [row["assignment"][i] for i in source], "weight": row["weight"]}
         for row in doc["sample"]),
        key=lambda row: row["assignment"])
    return dict(doc, sample=sample, costs=[doc["costs"][i] for i in source],
                utility=relabel_descriptor(doc["utility"], perm))


class FileWorkload(Workload):
    """Instance files written in set-up; every op loads its file afresh with
    `load_instance`, as one `scencover` invocation does, so no op sees
    another op's utility caches.

    The corpus is generated from fixed seeds.  Set-up writes it twice: as
    generated (the golden pool, keys "0/<k>") and with each file's items
    relabelled by a permutation drawn from the run's seed (keys "seed/<k>").
    """

    setup_repeats = 9

    def setup(self, clock):
        """Generate, save and load every file; repeated, one unit each."""
        for _ in range(self.setup_repeats):
            with clock.unit() as unit:
                self.files = list(self._write_files(unit))
        self.files.sort(key=lambda f: not f[1])  # the golden pool first

    def _write_files(self, unit):
        """Yield (key, golden, path) per file written; a lap per file."""
        rng = random.Random("%s/golden/0" % self.name)
        for k, (instance, descriptor) in enumerate(self.generate_corpus(rng)):
            doc = serialize.emit_document(instance, descriptor)
            perm = list(range(instance.n))
            random.Random("%s/relabel/%d/%d" % (self.name, self.seed, k)).shuffle(perm)
            for pool, pool_doc in (("0", doc), ("seed", relabel_document(doc, perm))):
                path = self.workdir / ("%s-%s-%03d.json" % (self.name, pool, k))
                path.write_text(serialize.dumps_document(pool_doc), encoding="utf-8")
                serialize.load_instance(path)
                unit.lap()
                yield "%s/%d" % (pool, k), pool == "0", path

    def cycle(self):
        return [op for key, golden, path in self.files
                for op in self.file_ops(key, golden, path)]


class Build(FileWorkload):
    """Offline explicit trees at n up to 14: budget search, utility
    evaluation and tree validation dominate; the sample is small."""

    name = "build"
    sizes = ((12, 2), (14, 2), (9, 3))  # (n, states)
    families = ("coverage", "k_of_n", "or", "g_S")
    rows = 64

    def generate_corpus(self, rng):
        """Every (size, family) pair; k_of_n is binary only."""
        for n, states in self.sizes:
            for family in self.families:
                if family == "k_of_n" and states != 2:
                    continue
                yield generate.random_instance(rng, n=n, num_states=states,
                                               sample_size=self.rows, family=family)

    def file_ops(self, key, golden, path):
        for alg in ALGORITHMS:
            yield self._op("%s/%s" % (key, alg), alg, golden, path)

    @staticmethod
    def _op(key, alg, golden, path):
        loaded = {}

        def run():
            start = perf()
            instance, descriptor = serialize.load_instance(path)
            outputs = tree_outputs(instance, alg)
            elapsed = perf() - start
            loaded["instance"] = (instance, descriptor)
            return {alg: elapsed}, outputs

        def check(outputs, count):
            instance, descriptor = loaded["instance"]
            record, failures = check_tree_outputs(key, alg, instance, descriptor,
                                                  outputs, count)
            return [record], failures

        return Op(key, alg, run, check, golden)


class Certify(FileWorkload):
    """Oracle-size files, each put through what `scencover bench` does for
    one file plus the root backbone audit; the sample is negligible."""

    name = "certify"
    families = ("coverage", "k_of_n", "or", "g_S", "g_W")
    # every (n, family, states) shape, twice
    shapes = tuple((n, family, states) for family in families for n in range(2, 7)
                   for states in ((2,) if family == "k_of_n" else (2, 3)))

    def generate_corpus(self, rng):
        for n, family, states in self.shapes * 2:
            yield generate.random_instance(
                rng, n=n, num_states=states, sample_size=rng.randint(1, 8),
                family=family, universe_size=rng.randint(2, 5))

    def file_ops(self, key, golden, path):
        yield self._op(key, golden, path)

    @staticmethod
    def _op(key, golden, path):
        loaded = {}

        def run():
            times = {}
            instance, descriptor = serialize.load_instance(path)
            _, optimum = oracle.optimal_tree(instance)
            try:
                eta = utility.min_progress_ratio(instance.utility).floor
            except core.PreconditionError:
                eta = None
            ceiling = None if eta is None else mixedgreedy.ratio_ceiling(eta, instance.goal)
            trees = {}
            for alg in ALGORITHMS:
                start = perf()
                trees[alg] = tree_outputs(instance, alg)
                times[alg] = perf() - start
            audit = mixedgreedy.backbone_audit(instance)
            loaded["instance"] = (instance, descriptor)
            return times, (optimum, ceiling, trees, audit)

        def check(outputs, count):
            instance, descriptor = loaded["instance"]
            optimum, ceiling, trees, audit = outputs
            records = [Record(key + "/optimal", None, optimum, "")]
            failures = []
            for alg in ALGORITHMS:
                record, fails = check_tree_outputs(
                    "%s/%s" % (key, alg), alg, instance, descriptor, trees[alg], count)
                records.append(record)
                failures += fails
                if record.cost < optimum:
                    failures.append("%s/%s: cost below the optimum" % (key, alg))
                if (alg == "mixed" and ceiling is not None and optimum > 0
                        and record.cost > ceiling * optimum):
                    failures.append("%s: mixed ratio above ratio_ceiling" % key)
            if audit.within_24_optimal is False:
                failures.append("%s: backbone above 24x the induced optimum" % key)
            if audit.within_3_stage1 is False:
                failures.append("%s: backbone above 3x the stage-1 cost" % key)
            trace = audit.trace
            if (trace.stage1_exit == trace.stage2_exit == "budget"
                    and not mixedgreedy.stage_progress_holds(trace, instance.goal)):
                failures.append("%s: budget-exit root gained < 1/9 of the goal" % key)
            return records, failures

        return Op(key, None, run, check, golden)


WORKLOADS = {w.name: w for w in (Serve, Build, Certify)}
