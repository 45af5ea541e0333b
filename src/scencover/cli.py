"""Command-line front end: solve, check, gen, and bench subcommands.

Exit codes: 0 success, 1 failed check or violated bound, 2 usage or parse
error or an instance no solver can finish, 3 refused by a brute-force budget.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
from fractions import Fraction

from .adaptivegreedy import scenario_adaptive_greedy
from .core import (
    OracleBudgetError,
    PreconditionError,
    ScencoverError,
    expected_cost,
    follow,
    tree_size,
    validate_tree,
)
from .generate import FAMILIES, random_instance
from .mixedgreedy import (
    materialize,
    mixed_greedy,
    ratio_ceiling,
    scenario_mixed_greedy_tree,
)
from .oracle import optimal_tree
from .serialize import (
    ParseError,
    load_instance,
    save_instance,
    tree_to_document,
)
from .utility import (
    check_adaptive_submodular,
    check_monotone,
    check_submodular,
    min_progress_ratio,
)

#: Explicit trees larger than this are emitted as per-row traces instead.
MAX_TREE_NODES = 100_000

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

ALGORITHMS = ("mixed", "scenario-mixed", "scenario-adaptive", "optimal")
PROPERTIES = ("monotone", "submodular", "adaptive-submodular", "rho", "goal")


def _fraction_fields(value: Fraction) -> dict:
    return {"exact": str(value), "decimal": float(value)}


def _solve_tree(instance, algorithm):
    """Returns (tree, traces or None).  May raise OracleBudgetError."""
    if algorithm == "mixed":
        traces: list = []
        return mixed_greedy(instance, traces=traces), traces
    if algorithm == "scenario-mixed":
        traces = []
        return scenario_mixed_greedy_tree(instance, traces=traces), traces
    if algorithm == "scenario-adaptive":
        strategy = scenario_adaptive_greedy(instance)
        return materialize(strategy, instance.alphabet, instance.n), None
    if algorithm == "optimal":
        tree, _ = optimal_tree(instance)
        return tree, None
    raise PreconditionError("unknown algorithm %r" % algorithm)


def _strategy_document(tree, instance):
    if tree_size(tree) <= MAX_TREE_NODES:
        return {"tree": tree_to_document(tree)}
    rows = []
    for a, w in instance.sample.rows:
        cost, terminal = follow(tree, a, instance.costs)
        items = [i + 1 for i, s in enumerate(terminal) if s != "*"]
        rows.append({
            "assignment": list(a),
            "weight": w,
            "cost": str(cost),
            "items": items,
        })
    return {"trace": rows}


def cmd_solve(args) -> int:
    instance, _ = load_instance(args.infile)
    tree, traces = _solve_tree(instance, args.algorithm)
    cost = expected_cost(tree, instance)
    validation = validate_tree(tree, instance)
    report = {
        "algorithm": args.algorithm,
        "expected_cost": _fraction_fields(cost),
        "goal": instance.goal,
        "validation": validation.status,
        "strategy": _strategy_document(tree, instance),
    }
    report.update(_progress_bound(instance)[1])
    if traces:
        report["root_budget"] = str(traces[0].budget)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("%s: expected cost %s (%s)"
          % (args.algorithm, cost, float(cost)))
    return EXIT_OK


def _progress_bound(instance):
    """The mixed-greedy ratio ceiling and the report fields behind it.

    Returns (ceiling or None, {"rho", "eta", "ratio_ceiling"} as strings or
    null).  When `enumerate_partials` refuses the exhaustive rho
    enumeration, rho reads "skipped" and "rho_reason" says why.
    """
    try:
        progress = min_progress_ratio(instance.utility)
    except OracleBudgetError as exc:
        return None, {"rho": "skipped", "rho_reason": str(exc),
                      "eta": None, "ratio_ceiling": None}
    except PreconditionError:
        return None, {"rho": None, "eta": None, "ratio_ceiling": None}
    ceiling = ratio_ceiling(progress.floor, instance.goal)
    return ceiling, {
        "rho": str(progress.ratio),
        "eta": str(progress.floor),
        "ratio_ceiling": None if ceiling is None else str(ceiling),
    }


def cmd_check(args) -> int:
    instance, _ = load_instance(args.infile)
    g = instance.utility
    prop = args.property
    if prop == "rho":
        try:
            progress = min_progress_ratio(g)
        except PreconditionError as exc:
            print("rho undefined: %s" % exc, file=sys.stderr)
            return EXIT_FAILED
        print("rho = %s (eta = %s)" % (progress.ratio, progress.floor))
        return EXIT_OK
    if prop == "goal":
        ok = g.verify_goal_on_full()
        print("goal: %s" % ("reached on all realizations" if ok else "FAILED"))
        return EXIT_OK if ok else EXIT_FAILED

    if prop == "monotone":
        result = check_monotone(g)
    elif prop == "submodular":
        result = check_submodular(g)
    else:
        result = check_adaptive_submodular(g, instance.sample)
    if result.ok:
        print("%s: true" % prop)
        return EXIT_OK
    print("%s: false, witness %r" % (prop, result.witness))
    return EXIT_FAILED


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    try:
        instance, descriptor = random_instance(
            rng,
            n=args.n,
            num_states=args.states,
            sample_size=args.sample_size,
            family=args.family,
            universe_size=args.universe_size,
        )
    except ScencoverError as exc:
        print("generation failed: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        ok = (check_monotone(instance.utility).ok
              and check_submodular(instance.utility).ok
              and instance.utility.verify_goal_on_full())
    except OracleBudgetError as exc:
        print("post-validation skipped: %s" % exc, file=sys.stderr)
        ok = True
    if not ok:
        print("generated instance failed post-validation", file=sys.stderr)
        return EXIT_FAILED
    save_instance(args.outfile, instance, descriptor)
    print("wrote %s (n=%d, family=%s, seed=%d)"
          % (args.outfile, args.n, args.family, args.seed))
    return EXIT_OK


def _bench_row(path, algorithms):
    instance, _ = load_instance(path)
    row = {"file": str(path), "n": instance.n, "goal": instance.goal}
    try:
        _, optimum = optimal_tree(instance)
        row["optimal"] = str(optimum)
    except OracleBudgetError:
        optimum = None
        row["optimal"] = "oracle skipped"

    ceiling, fields = _progress_bound(instance)
    row.update(fields)

    all_pass = True
    for algorithm in algorithms:
        tree, _ = _solve_tree(instance, algorithm)
        cost = expected_cost(tree, instance)
        entry = {"cost": str(cost)}
        if optimum is None:
            entry["ratio"] = None
            entry["pass"] = None
        else:
            ratio = cost / optimum if optimum > 0 else None
            entry["ratio"] = None if ratio is None else str(ratio)
            ok = cost >= optimum
            if algorithm == "mixed" and ceiling is not None and ratio is not None:
                ok = ok and ratio <= ceiling
            entry["pass"] = ok
            all_pass = all_pass and ok
        row[algorithm] = entry
    return row, all_pass


def cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    directory = pathlib.Path(args.directory)
    if not algorithms or not directory.is_dir():
        print("bench needs a directory and an algorithm, got %r and %r"
              % (args.directory, args.algorithms), file=sys.stderr)
        return EXIT_USAGE
    for a in algorithms:
        if a not in ALGORITHMS or a == "optimal":
            print("unknown bench algorithm %r" % a, file=sys.stderr)
            return EXIT_USAGE
    paths = sorted(directory.glob("*.json"))
    rows = []
    ok = True
    for path in paths:
        row, row_ok = _bench_row(path, algorithms)
        rows.append(row)
        ok = ok and row_ok
        cells = ["%s=%s" % (a, row[a]["cost"]) for a in algorithms]
        print("%s: C*=%s %s" % (path.name, row["optimal"], " ".join(cells)))
    table = {"algorithms": algorithms, "rows": rows}
    with open(args.outfile, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print("%d instance(s), bounds %s" % (len(rows), "ok" if ok else "VIOLATED"))
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scencover",
        description="Decision-tree solvers for goal-driven adaptive testing "
                    "over weighted scenario samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a structural property")
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--sample-size", type=int, default=4)
    p.add_argument("--universe-size", type=int, default=4)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="compare solvers against the oracle")
    p.add_argument("--dir", dest="directory", required=True)
    p.add_argument("--algorithms", required=True,
                   help="comma-separated subset of the non-oracle solvers")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print("file not found: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OracleBudgetError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except PreconditionError as exc:
        print("cannot finish: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
