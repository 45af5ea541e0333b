"""Self-check of the benchmark's tracing: every per-layer counter must be
nonzero on the workload whose numbers it is meant to explain.

    python3 -m pytest perfbench/selfcheck.py

A refactor that moves or renames a traced function (so the tracer no longer
sees it) then fails here instead of silently reporting 0.  Each workload is
set up and runs one cycle untraced and one traced; that takes about two
minutes in all.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Layer metrics each workload must exercise, following the layer -> metric
#: -> workload predictions in baseline.json.
EXPECTED = {
    "serve": (
        "core.sample.calls", "core.sample.self_s", "core.sample.rows_scanned",
        "core.instance.s", "utility.value.calls", "utility.evals",
        "budgeted.find_budget.calls", "budgeted.find_budget.self_s",
        "budgeted.wolsey.calls", "budgeted.wolsey.self_s",
        "budgeted.candidates.total", "budgeted.candidates.self_s",
        "mixedgreedy.plan.calls", "mixedgreedy.plan.self_s",
        "mixedgreedy.next_item.calls", "mixedgreedy.next_item.self_s",
        "adaptivegreedy.next_item.calls", "adaptivegreedy.next_item.self_s",
        "trace.overhead",
    ),
    "build": (
        "core.validate.self_s", "core.validate.realizations",
        "core.expected_cost.self_s", "core.tree_nodes",
        "utility.value.calls", "utility.value.self_s", "utility.evals",
        "utility.hit_ratio",
        "budgeted.find_budget.calls", "budgeted.find_budget.self_s",
        "budgeted.wolsey.calls", "budgeted.wolsey.self_s",
        "budgeted.candidates.total", "budgeted.candidates.self_s",
        "mixedgreedy.plan.calls", "mixedgreedy.plan.self_s",
        "mixedgreedy.build.self_s", "mixedgreedy.materialize.self_s",
        "adaptivegreedy.next_item.calls",
        "serialize.load.calls", "serialize.load.s", "serialize.load.bytes",
        "trace.overhead",
    ),
    "certify": (
        "utility.rho.self_s",
        "minsum.schedule_cost.calls", "minsum.schedule_cost.self_s",
        "oracle.optimal_tree.calls", "oracle.optimal_tree.self_s",
        "mixedgreedy.audit.self_s",
        "serialize.load.calls", "serialize.load.s", "serialize.load.bytes",
        "trace.overhead",
    ),
}


def traced_cycle(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    workload.passes = 1
    run = bench.Run(workload, seconds=0, tracer=Tracer())
    run.measure()
    return run, run.per_layer([])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_layer_counters_nonzero(name, tmp_path):
    run, metrics = traced_cycle(name, tmp_path)
    assert not run.failed, run.messages
    assert set(metrics) == {m for m, *_ in bench.PER_LAYER} | {
        "utility.hit_ratio", "trace.overhead"}
    zero = [m for m in EXPECTED[name] if not metrics[m][0] > 0]
    assert not zero, "%s reports 0 for %s" % (name, zero)
    # oracle-size inputs are never refused
    assert metrics["oracle.optimal_tree.refused"][0] == 0


def test_every_layer_metric_is_expected_somewhere():
    expected = set().union(*EXPECTED.values())
    reported = {m for m, *_ in bench.PER_LAYER} | {"utility.hit_ratio",
                                                   "trace.overhead"}
    assert reported - expected == {"oracle.optimal_tree.refused"}
