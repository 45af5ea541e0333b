"""Per-layer tracing from outside the library.

The tracer replaces public functions and methods of `scencover` with timing
wrappers while it is installed, and restores the originals when removed.  A
name is patched where its caller looks it up: `mixedgreedy` imports
`find_budget`, `optimal_tree` and `schedule_cost` into its own namespace, so
patching only the defining module would miss the solver's calls.

Self time is attributed with an explicit stack, because `value`,
`mixed_greedy` and the harness spans nest and recurse.  Every call is
aggregated into per-name counters and timers (no per-call span records):
`value` and `consistent_rows` run millions of times per run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

from scencover import (
    adaptivegreedy,
    budgeted,
    core,
    minsum,
    mixedgreedy,
    oracle,
    serialize,
    utility,
)


def _utility_classes():
    todo = [utility.UtilityFunction]
    seen = []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Counters and self/inclusive timers per layer name, split by tag.

    The tag names what the harness is doing ("setup" or an algorithm), so
    shares can be reported per algorithm.  Totals over all tags are the
    per-layer metrics.
    """

    def __init__(self):
        self.tag = "setup"
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.tag, name)] += amount

    def _close(self, name, start, frame):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        key = (self.tag, name)
        self.calls[key] += 1
        self.self_s[key] += elapsed - frame[0]
        self.incl_s[key] += elapsed

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, frame)

    def _wrap(self, name, fn, before=None, after=None, refused=None):
        tracer = self
        perf = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, start, frame)
                if refused is not None and isinstance(exc, refused):
                    tracer.count(name + ".refused")
                raise
            tracer._close(name, start, frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(tracer.tag, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every traced name; `remove` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        count = self.count

        def rows_scanned(args):
            count("core.sample.rows_scanned", len(args[0].rows))

        def realizations(args, report):
            count("core.validate.realizations", report.checked)

        def candidates(args, result):
            count("budgeted.candidates.total", len(result))

        def load_bytes(args):
            count("serialize.load.bytes", os.path.getsize(args[0]))

        sites = [
            (core.WeightedSample, "consistent_rows",
             dict(name="core.sample", before=rows_scanned)),
            (core.ScenarioInstance, "__post_init__", dict(name="core.instance")),
            (core, "validate_tree", dict(name="core.validate", after=realizations)),
            (core, "expected_cost", dict(name="core.expected_cost")),
            (utility.UtilityFunction, "value", dict(name="utility.value")),
            (utility, "min_progress_ratio", dict(name="utility.rho")),
            (mixedgreedy, "find_budget", dict(name="budgeted.find_budget")),
            (budgeted, "find_budget", dict(name="budgeted.find_budget")),
            (budgeted, "wolsey_greedy", dict(name="budgeted.wolsey")),
            (budgeted, "budget_candidates",
             dict(name="budgeted.candidates", after=candidates)),
            (mixedgreedy, "invocation_plan", dict(name="mixedgreedy.plan")),
            (mixedgreedy.MixedGreedyStrategy, "next_item",
             dict(name="mixedgreedy.next_item")),
            (mixedgreedy, "mixed_greedy", dict(name="mixedgreedy.build")),
            (mixedgreedy, "scenario_mixed_greedy_tree",
             dict(name="mixedgreedy.build")),
            (mixedgreedy, "materialize", dict(name="mixedgreedy.materialize")),
            (mixedgreedy, "backbone_audit", dict(name="mixedgreedy.audit")),
            (adaptivegreedy.AdaptiveGreedyStrategy, "next_item",
             dict(name="adaptivegreedy.next_item")),
            (minsum, "schedule_cost", dict(name="minsum.schedule_cost")),
            (mixedgreedy, "schedule_cost", dict(name="minsum.schedule_cost")),
            (oracle, "schedule_cost", dict(name="minsum.schedule_cost")),
            (oracle, "optimal_tree",
             dict(name="oracle.optimal_tree", refused=oracle.OracleBudgetError)),
            (mixedgreedy, "optimal_tree",
             dict(name="oracle.optimal_tree", refused=oracle.OracleBudgetError)),
            (serialize, "load_instance",
             dict(name="serialize.load", before=load_bytes)),
        ]
        for owner, attr, spec in sites:
            self._patch(owner, attr, w(fn=owner.__dict__[attr], **spec))
        # memo misses: every `_evaluate` runs exactly when `value` misses
        for cls in _utility_classes():
            if "_evaluate" in cls.__dict__:
                self._patch(cls, "_evaluate",
                            self._counter("utility.evals", cls.__dict__["_evaluate"]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- reporting ---------------------------------------------------------

    def totals(self, tags=None):
        """Per-name sums over the given tags (all tags when None):
        {name: {"calls", "self_s", "incl_s"}} plus {name: count} counters."""
        spans: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for (tag, name), calls in self.calls.items():
            if tags is None or tag in tags:
                entry = spans[name]
                entry["calls"] += calls
                entry["self_s"] += self.self_s[(tag, name)]
                entry["incl_s"] += self.incl_s[(tag, name)]
        counts: dict = defaultdict(int)
        for (tag, name), value in self.counts.items():
            if tags is None or tag in tags:
                counts[name] += value
        return dict(spans), dict(counts)
