"""scencover benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload {serve,build,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from `src/`.  The
run sets up its workload from the seed, then runs whole cycles of ops back
to back: the workload's minimum (`passes`), or as many as fit in
`--seconds` at the first cycle's scaled time.  A cycle runs the same ops
from the same state every time.  Every execution is checked; it prints a human-readable report
and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

Timings are made steady on a shared host in two ways.  Neighbours slow a
whole run by up to 1.6x for minutes at a time, so a fixed reference kernel
is probed before, during and after every op, and each op's time is scaled
to the kernel's speed on a quiet host (`REFERENCE_S`); set-up is scaled the
same way, lap by lap.  What scaling misses differs from op to op, so an
op's latency is its best scaled time over a fixed number of cycles, and
medians and tails are Harrell-Davis estimates over the ops.  The report
shows the probes and the unscaled op time next to the scaled one.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
tracer patches the library's public functions during set-up and one extra
cycle; the metrics are the per-layer counters of both plus
`trace.overhead`, the traced cycle's op time over the first untraced
cycle's, both unscaled.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layer metrics reported by a traced run: (metric, kind, layer, unit).
#: kind "calls", "self_s" and "incl_s" read a span; "count" reads a counter.
PER_LAYER = (
    ("core.sample.calls", "calls", "core.sample", "count"),
    ("core.sample.self_s", "self_s", "core.sample", "s"),
    ("core.sample.rows_scanned", "count", "core.sample.rows_scanned", "count"),
    ("core.instance.s", "incl_s", "core.instance", "s"),
    ("core.validate.self_s", "self_s", "core.validate", "s"),
    ("core.validate.realizations", "count", "core.validate.realizations", "count"),
    ("core.expected_cost.self_s", "self_s", "core.expected_cost", "s"),
    ("core.tree_nodes", "count", "core.tree_nodes", "count"),
    ("utility.value.calls", "calls", "utility.value", "count"),
    ("utility.value.self_s", "self_s", "utility.value", "s"),
    ("utility.evals", "count", "utility.evals", "count"),
    ("utility.rho.self_s", "self_s", "utility.rho", "s"),
    ("budgeted.find_budget.calls", "calls", "budgeted.find_budget", "count"),
    ("budgeted.find_budget.self_s", "self_s", "budgeted.find_budget", "s"),
    ("budgeted.wolsey.calls", "calls", "budgeted.wolsey", "count"),
    ("budgeted.wolsey.self_s", "self_s", "budgeted.wolsey", "s"),
    ("budgeted.candidates.total", "count", "budgeted.candidates.total", "count"),
    ("budgeted.candidates.self_s", "self_s", "budgeted.candidates", "s"),
    ("mixedgreedy.plan.calls", "calls", "mixedgreedy.plan", "count"),
    ("mixedgreedy.plan.self_s", "self_s", "mixedgreedy.plan", "s"),
    ("mixedgreedy.next_item.calls", "calls", "mixedgreedy.next_item", "count"),
    ("mixedgreedy.next_item.self_s", "self_s", "mixedgreedy.next_item", "s"),
    ("mixedgreedy.build.self_s", "self_s", "mixedgreedy.build", "s"),
    ("mixedgreedy.materialize.self_s", "self_s", "mixedgreedy.materialize", "s"),
    ("mixedgreedy.audit.self_s", "self_s", "mixedgreedy.audit", "s"),
    ("adaptivegreedy.next_item.calls", "calls", "adaptivegreedy.next_item", "count"),
    ("adaptivegreedy.next_item.self_s", "self_s", "adaptivegreedy.next_item", "s"),
    ("minsum.schedule_cost.calls", "calls", "minsum.schedule_cost", "count"),
    ("minsum.schedule_cost.self_s", "self_s", "minsum.schedule_cost", "s"),
    ("oracle.optimal_tree.calls", "calls", "oracle.optimal_tree", "count"),
    ("oracle.optimal_tree.self_s", "self_s", "oracle.optimal_tree", "s"),
    ("oracle.optimal_tree.refused", "count", "oracle.optimal_tree.refused", "count"),
    ("serialize.load.calls", "calls", "serialize.load", "count"),
    ("serialize.load.s", "incl_s", "serialize.load", "s"),
    ("serialize.load.bytes", "count", "serialize.load.bytes", "B"),
)


#: The reference kernel's best time on a quiet host (one core of a shared
#: 2-vCPU x86-64 VM, Python 3.11).  Every op time is scaled by this over the
#: kernel's time probed around the op, so timings read as milliseconds on
#: that quiet host whatever the neighbours do.
REFERENCE_S = 150e-6
#: Seconds between probes inside a timed span.
PROBE_EVERY = 0.05


def reference_kernel():
    """Fixed pure-Python work in the library's style: exact fractions,
    tuples and dict lookups.  It never changes, so its time measures only
    the host's speed."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + 1
    return total, len(table)


def probe():
    """Best of three timings of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostSampler:
    """Probes the host's speed around and during a timed span: before it,
    every PROBE_EVERY seconds inside it (from a SIGALRM timer, so a long op
    is scaled by the speed it ran at, not only the speed at its ends), and
    after it.  The probes inside a span cost about 1% of it and stay in its
    time."""

    def __init__(self):
        self.all: list = []  # every probe, for the report
        self._span: list = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self._span.append(probe())

    def begin(self):
        self._span = [probe()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)

    def end(self):
        """Stop sampling; returns the factor that scales the span's time to
        the quiet host."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._span.append(probe())
        self.all.extend(self._span)
        return REFERENCE_S / statistics.mean(self._span)


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of their slot.
    It moves smoothly with the samples, where a single order statistic jumps
    between neighbours that can lie 15% apart among a few dozen ops."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 64  # midpoint rule inside each slot [i/n, (i+1)/n]
    total = mass = 0.0
    for i, value in enumerate(ordered):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += w * value
        mass += w
    return total / mass


def tail(samples):
    """The highest percentile with at least ten samples beyond it, but not
    below the median.  Returns (value, percentile, samples beyond)."""
    n = len(samples)
    fraction = max(0.5, (n - 10) / n)
    beyond = n - max(math.ceil(fraction * n), 1)
    return quantile(samples, fraction), 100.0 * fraction, beyond


class SetupClock:
    """Times set-up units, scaled like ops: a unit is split into laps, and
    each lap's time is scaled by the host's speed during it."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.units: list = []

    @contextmanager
    def unit(self):
        self._scaled = 0.0
        self._begin()
        yield self
        self.lap()
        self.units.append(self._scaled)

    def _begin(self):
        self.sampler.begin()
        self._start = time.perf_counter()

    def lap(self):
        elapsed = time.perf_counter() - self._start
        self._scaled += elapsed * self.sampler.end()
        self._begin()


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.best_alg: dict = {}  # (key, alg) -> best seconds over cycles
        self.best_op: dict = {}  # key -> best seconds of the whole op
        self.cycle_s: list = []  # untraced op seconds per cycle
        self.traced_s = 0.0
        self.records: dict = {}  # key -> records of the first execution
        self.golden_keys: set = set()
        self.failed: set = set()  # (cycle, key) of every failed execution
        self.messages: list = []
        self.attempted = 0
        self.cycles = 0
        self.sampler = HostSampler()
        self.raw_s = 0.0  # untraced op seconds as measured

    def _fail(self, where, message):
        self.failed.add(where)
        self.messages.append("%s: %s" % (where[1], message))

    def _execute(self, op, traced):
        """Run one op; returns (seconds, per-algorithm seconds, records,
        failures).  Untraced, the times are scaled to the quiet host."""
        tracer = self.tracer
        if traced:
            tracer.tag = op.alg or self.workload.name
            tracer.install()
        else:
            self.sampler.begin()
        try:
            start = time.perf_counter()
            if traced:
                with tracer.span("bench.op"):
                    times, outputs = op.run()
            else:
                times, outputs = op.run()
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.remove()
            else:
                scale = self.sampler.end()
        if not traced:
            self.raw_s += elapsed
            elapsed *= scale
            times = {alg: seconds * scale for alg, seconds in times.items()}
        count = tracer.count if traced else (lambda name, amount=1: None)
        records, failures = op.check(outputs, count)
        return elapsed, times, records, failures

    def _cycle(self, cycle, traced):
        """Run every op of one cycle; returns the cycle's op seconds,
        scaled when untraced."""
        total = 0.0
        for op in self.workload.cycle():
            where = (cycle, op.key)
            if not traced:
                self.attempted += 1
            try:
                elapsed, times, records, failures = self._execute(op, traced)
            except Exception as exc:  # one op's crash is one failed op
                self._fail(where, "%s: %s" % (type(exc).__name__, exc))
                continue
            for message in failures:
                self._fail(where, message)
            outputs = [(r.cost, r.digest) for r in records]
            first = self.records.setdefault(op.key, records)
            if outputs != [(r.cost, r.digest) for r in first]:
                self._fail(where, "outputs differ from the first execution")
            if op.golden:
                self.golden_keys.add(op.key)
            total += elapsed
            if traced:
                continue
            self.best_op[op.key] = min(elapsed, self.best_op.get(op.key, math.inf))
            for alg, seconds in times.items():
                k = (op.key, alg)
                self.best_alg[k] = min(seconds, self.best_alg.get(k, math.inf))
        return total

    def measure(self):
        workload, tracer = self.workload, self.tracer
        clock = SetupClock(self.sampler)
        if tracer is not None:
            with tracer.installed(), tracer.span("bench.setup"):
                workload.setup(clock)
        else:
            workload.setup(clock)
        self.setup_units = clock.units

        # a fixed number of whole cycles, so every op has as many
        # repetitions: the minimum, or as many as the first cycle's scaled
        # time says fit in --seconds on a quiet host
        self.cycle_s.append(self._cycle(0, traced=False))
        self.first_raw_s = self.raw_s
        if tracer is not None:
            self.traced_s = self._cycle(0, traced=True)
        cycles = max(workload.passes, int(self.seconds // self.cycle_s[0]))
        for cycle in range(1, cycles):
            self.cycle_s.append(self._cycle(cycle, traced=False))
        self.cycles = len(self.cycle_s)

    def check_golden(self):
        """Compare the golden ops' outputs with the record; every mismatch
        fails its op."""
        path = HERE / "golden.json"
        expected = json.loads(path.read_text()).get(self.workload.name)
        if expected is None:
            self.golden = "no record"
            return
        got = {r.key: (key, r) for key in self.golden_keys for r in self.records[key]}
        if len(got) != len(expected):
            self._fail((0, "golden"), "%d records, expected %d" % (len(got), len(expected)))
        mismatches = 0
        for key, cost, digest in expected:
            op_key, record = got.get(key, ("golden", None))
            if record is None or (str(record.cost), record.digest) != (cost, digest):
                mismatches += 1
                self._fail((0, op_key), "golden mismatch at %s" % key)
        self.golden = "%d of %d records match" % (len(expected) - mismatches,
                                                  len(expected))

    def golden_costs(self):
        """Exact mean cost per algorithm over the golden ops."""
        sums: dict = {}
        for key in self.golden_keys:
            for record in self.records[key]:
                if record.alg is not None:
                    total, count = sums.get(record.alg, (Fraction(0), 0))
                    sums[record.alg] = (total + record.cost, count + 1)
        return {alg: total / count for alg, (total, count) in sums.items()}

    def end_to_end(self, lines):
        from workloads import ALGORITHMS

        m = {}
        m["setup_s"] = (statistics.median(self.setup_units), "s")
        m["ops_per_s"] = (len(self.best_op) / sum(self.best_op.values()), "1/s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        m["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        costs = self.golden_costs()
        probes = self.sampler.all
        lines.append("host: reference kernel probed %d times, median %.1f us "
                     "(%.1f us quiet); op time %.3f s as measured, %.3f s scaled"
                     % (len(probes), 1e6 * statistics.median(probes),
                        1e6 * REFERENCE_S, self.raw_s, sum(self.cycle_s)))
        for alg in ALGORITHMS:
            samples = [s for (_, a), s in self.best_alg.items() if a == alg]
            m["p50_ms." + alg] = (1000 * quantile(samples, 0.5), "ms")
            value, pct, beyond = tail(samples)
            m["tail_ms." + alg] = (1000 * value, "ms")
            m["cost." + alg] = (float(costs[alg]), "cost")
            lines.append("%s: %d ops, best of %d cycles each; tail is p%.1f with "
                         "%d beyond; exact mean cost over the golden ops %s"
                         % (alg, len(samples), self.cycles, pct, beyond, costs[alg]))
        return m

    def per_layer(self, lines):
        spans, counts = self.tracer.totals()
        m = {}
        for metric, kind, layer, unit in PER_LAYER:
            if kind == "count":
                value = counts.get(layer, 0)
            else:
                value = spans.get(layer, {}).get(kind, 0)
            m[metric] = (value, unit)
        value = spans.get("utility.value", {}).get("calls", 0)
        evals = counts.get("utility.evals", 0)
        m["utility.hit_ratio"] = (1 - evals / value if value else 0.0, "ratio")
        m["trace.overhead"] = (self.traced_s / self.first_raw_s, "ratio")
        for tag in sorted({tag for tag, _ in self.tracer.calls}):
            spans, _ = self.tracer.totals({tag})
            wall = sum(e["self_s"] for e in spans.values())
            top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:6]
            lines.append("self-time shares [%s, %.3f s]: %s" % (
                tag, wall, ", ".join("%s %.1f%%" % (name, 100 * e["self_s"] / wall)
                                     for name, e in top)))
        return m


@contextmanager
def work_dir(prefix):
    """A fresh directory under the checkout's `.perfbench_work`, removed
    (with the parent, once empty) on exit."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=work_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scencover").is_dir():
        print("error: %s holds no src/scencover to benchmark" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    with work_dir(args.workload) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = Run(workload, args.seconds, Tracer() if args.trace else None)
        run.measure()
    run.check_golden()
    lines = []
    metrics = run.per_layer(lines) if args.trace else run.end_to_end(lines)

    failed = len(run.failed)
    attempted = run.attempted
    for message in run.messages[:10]:
        lines.append("FAILED %s" % message)
    lines.append("golden: %s" % run.golden)
    lines.append("fail_frac = %g (%d failed of %d attempted, %d cycles)"
                 % (failed / attempted, failed, attempted, run.cycles))
    for name, (value, unit) in metrics.items():
        lines.append("%s = %r %s" % (name, value, unit))
    print("\n".join("# " + line for line in lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
