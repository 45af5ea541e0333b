"""Command-line driver: subcommand behavior and exit codes."""

import itertools
import json
from fractions import Fraction

import pytest

from scencover import cli, utility
from scencover.cli import main
from scencover.core import MAX_CHECK_SPACE, Node, follow
from scencover.mixedgreedy import mixed_greedy
from scencover.serialize import dumps_document, load_instance


def run(argv):
    return main([str(a) for a in argv])


def refuse_partials_only(monkeypatch):
    """Fail the test if `utility`'s enumerate_partials admits an
    enumeration instead of refusing it."""
    admitted = utility.enumerate_partials

    def enumerate_or_fail(alphabet, n):
        admitted(alphabet, n)
        raise AssertionError("enumerate_partials admitted n=%d" % n)

    monkeypatch.setattr(utility, "enumerate_partials", enumerate_or_fail)


def k_of_n_doc(n=3, k=2):
    rows = [
        {"assignment": list(a), "weight": 1}
        for a in itertools.product("01", repeat=n)
        if a.count("1") >= k or a.count("0") >= n - k + 1
    ]
    return {
        "version": 1,
        "n": n,
        "states": ["0", "1"],
        "sample": rows,
        "costs": ["1"] * n,
        "utility": {"kind": "k_of_n", "k": k},
    }


def write_doc(path, doc):
    path.write_text(dumps_document(doc))
    return path


def brute_force_optimum(doc):
    """Independent exhaustive strategy search, written directly against the
    JSON document (no solver-library reuse)."""
    n = doc["n"]
    k = doc["utility"]["k"]
    costs = [Fraction(c) for c in doc["costs"]]
    rows = [(tuple(r["assignment"]), r["weight"]) for r in doc["sample"]]
    total = sum(w for _, w in rows)

    def done(fixed):
        ones = sum(1 for s in fixed.values() if s == "1")
        zeros = sum(1 for s in fixed.values() if s == "0")
        return ones >= k or zeros >= n - k + 1

    def best(fixed, consistent):
        if done(fixed):
            return Fraction(0)
        wsum = sum(w for a, w in consistent)
        if wsum == 0:
            return Fraction(0)
        options = []
        for i in range(n):
            if i in fixed:
                continue
            value = costs[i]
            for s in ("0", "1"):
                sub = [(a, w) for a, w in consistent if a[i] == s]
                if sub:
                    sw = sum(w for _, w in sub)
                    value += Fraction(sw, wsum) * best({**fixed, i: s}, sub)
            options.append(value)
        return min(options)

    return best({}, rows)


def test_solve_optimal_matches_hand_enumeration(tmp_path):
    doc = k_of_n_doc()
    infile = write_doc(tmp_path / "inst.json", doc)
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "optimal", "--in", infile,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert Fraction(report["expected_cost"]["exact"]) == brute_force_optimum(doc)
    assert report["validation"] == "ok"


def test_solve_scenario_mixed_at_least_optimal(tmp_path):
    doc = k_of_n_doc()
    infile = write_doc(tmp_path / "inst.json", doc)
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "scenario-mixed", "--in", infile,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert Fraction(report["expected_cost"]["exact"]) >= brute_force_optimum(doc)


def test_solve_malformed_row_exits_2(tmp_path, capsys):
    doc = k_of_n_doc()
    doc["sample"][0]["assignment"] = ["0", "0", "marmot"]
    infile = write_doc(tmp_path / "bad.json", doc)
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", tmp_path / "o.json"]) == 2
    assert "sample row 1" in capsys.readouterr().err


def off_sample_goal_doc():
    """A table reaching its goal on every sample row but not on ("1", "1"),
    which no solver can finish."""
    values = {"*,*": 1, "*,0": 1, "*,1": 1, "0,*": 0, "1,*": 1,
              "0,0": 2, "0,1": 2, "1,0": 2, "1,1": 1}
    return {
        "version": 1,
        "n": 2,
        "states": ["0", "1"],
        "sample": [{"assignment": list(a), "weight": 1}
                   for a in (("0", "0"), ("0", "1"), ("1", "0"))],
        "costs": ["1", "1"],
        "utility": {"kind": "table", "goal": 2, "values": values},
    }


@pytest.mark.parametrize("algorithm, message", [
    ("mixed", "no budget up to the total cost suffices"),
    ("scenario-adaptive", "goal unreachable: no items left"),
])
def test_solve_goal_missed_off_sample_exits_2(tmp_path, capsys, algorithm,
                                               message):
    infile = write_doc(tmp_path / "off.json", off_sample_goal_doc())
    assert run(["solve", "--algorithm", algorithm, "--in", infile,
                "--out", tmp_path / "o.json"]) == 2
    assert message in capsys.readouterr().err


def test_solve_mixed_names_the_failed_budget_search(tmp_path, capsys):
    # at the total budget the greedy picks both free items; were the gain of
    # anchoring them submodular, one of its two answers would be feasible
    infile = write_doc(tmp_path / "off.json", off_sample_goal_doc())
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", tmp_path / "o.json"]) == 2
    assert ("suffices at ('*', '*'): the gain of anchoring worst-case states "
            "is not submodular" in capsys.readouterr().err)


def test_solve_mixed_names_the_worst_case_realization(tmp_path, capsys):
    # anchoring both items at their worst states gains nothing at the root:
    # ("1", "1") misses the goal, and the message names it, not the budget
    # search's set function
    doc = off_sample_goal_doc()
    doc["utility"]["values"] = {"*,*": 1, "0,*": 1, "1,*": 0, "*,0": 2,
                                "*,1": 0, "0,0": 2, "0,1": 2, "1,0": 2,
                                "1,1": 0}
    infile = write_doc(tmp_path / "worst.json", doc)
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", tmp_path / "o.json"]) == 2
    assert ("worst-case realization ('1', '1') has utility 0 < goal 2"
            in capsys.readouterr().err)


def test_bench_goal_missed_off_sample_exits_2(tmp_path):
    d = tmp_path / "off"
    d.mkdir()
    write_doc(d / "off.json", off_sample_goal_doc())
    assert run(["bench", "--dir", d, "--algorithms", "scenario-mixed",
                "--out", tmp_path / "b.json"]) == 2


def test_solve_oracle_refusal_exits_3(tmp_path):
    infile = tmp_path / "big.json"
    assert run(["gen", "--seed", 5, "--n", 7, "--family", "coverage",
                "--out", infile]) == 0
    assert run(["solve", "--algorithm", "optimal", "--in", infile,
                "--out", tmp_path / "o.json"]) == 3


def test_solve_writes_row_traces_above_tree_budget(tmp_path, monkeypatch):
    # above MAX_TREE_NODES the report lists each sample row's path instead
    monkeypatch.setattr(cli, "MAX_TREE_NODES", 1)
    doc = k_of_n_doc(n=4, k=2)
    infile = write_doc(tmp_path / "inst.json", doc)
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert "tree" not in report["strategy"]
    rows = report["strategy"]["trace"]
    instance, _ = load_instance(infile)
    tree = mixed_greedy(instance)
    assert [(tuple(r["assignment"]), r["weight"]) for r in rows] \
        == list(instance.sample.rows)
    for row in rows:
        queried, node = [], tree
        while isinstance(node, Node):
            queried.append(node.item)
            node = node.children[row["assignment"][node.item]]
        cost, _ = follow(tree, tuple(row["assignment"]), instance.costs)
        assert Fraction(row["cost"]) == cost
        assert cost == sum(instance.costs[i] for i in queried)
        assert row["items"] == sorted(i + 1 for i in queried)
    mean = (sum(Fraction(r["cost"]) * r["weight"] for r in rows)
            / sum(r["weight"] for r in rows))
    assert mean == Fraction(report["expected_cost"]["exact"])


def test_check_goal_refused_above_enumeration_budget(tmp_path, capsys):
    # 2^18 full realizations exceed verify_goal_on_full's 200,000 budget
    infile = tmp_path / "wide.json"
    assert run(["gen", "--seed", 1, "--n", 18, "--family", "coverage",
                "--out", infile]) == 0
    capsys.readouterr()
    assert run(["check", "--property", "goal", "--in", infile]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ")
    assert str(2 ** 18) in err and "Traceback" not in err


def test_check_submodular_refused_above_check_space(tmp_path, capsys):
    # 3^12 partial realizations exceed enumerate_partials' budget
    infile = tmp_path / "wide.json"
    assert run(["gen", "--seed", 1, "--n", 12, "--family", "coverage",
                "--out", infile]) == 0
    capsys.readouterr()
    assert run(["check", "--property", "submodular", "--in", infile]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ")
    assert str(3 ** 12) in err and str(MAX_CHECK_SPACE) in err
    assert "Traceback" not in err


def test_solve_skips_rho_above_check_space(tmp_path, monkeypatch):
    # (3+1)^14 partial realizations: the unguarded rho enumeration hangs
    refuse_partials_only(monkeypatch)
    infile = tmp_path / "wide.json"
    assert run(["gen", "--seed", 3, "--n", 14, "--states", 3,
                "--family", "coverage", "--sample-size", 8,
                "--out", infile]) == 0
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["rho"] == "skipped"
    assert str(4 ** 14) in report["rho_reason"]
    assert str(MAX_CHECK_SPACE) in report["rho_reason"]
    assert report["eta"] is None and report["ratio_ceiling"] is None
    assert report["expected_cost"]["exact"]
    # all 3^14 realizations are validated by walking the tree's paths
    assert report["validation"] == "ok"
    assert "validation_reason" not in report


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["gen", "--seed", 11, "--n", 4, "--family", "or",
                    "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_empty_sample(tmp_path):
    assert run(["gen", "--seed", 1, "--n", 3, "--family", "coverage",
                "--sample-size", 0, "--out", tmp_path / "z.json"]) == 2


@pytest.mark.parametrize("flag, value", [("--n", 0), ("--universe-size", -2)])
def test_gen_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    # argparse keeps the last value of a repeated flag, so `--n 0` wins
    assert run(["gen", "--seed", 1, "--family", "coverage",
                "--out", tmp_path / "z.json", "--n", 3, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("generation failed: ") and "Traceback" not in err
    assert not (tmp_path / "z.json").exists()


def test_gen_output_passes_checks(tmp_path):
    f = tmp_path / "c.json"
    assert run(["gen", "--seed", 21, "--n", 4, "--family", "coverage",
                "--out", f]) == 0
    for prop in ("goal", "monotone", "submodular"):
        assert run(["check", "--property", prop, "--in", f]) == 0


def test_check_rho_on_count_elimination_combination(tmp_path, capsys):
    f = tmp_path / "gs.json"
    assert run(["gen", "--seed", 9, "--n", 3, "--family", "g_S",
                "--out", f]) == 0
    assert run(["check", "--property", "rho", "--in", f]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    rho = Fraction(line.split()[2])
    assert rho >= Fraction(1, 2)


def test_check_adaptive_submodular_on_weight_combination(tmp_path):
    f = tmp_path / "gw.json"
    assert run(["gen", "--seed", 9, "--n", 3, "--family", "g_W",
                "--out", f]) == 0
    assert run(["check", "--property", "adaptive-submodular", "--in", f]) == 0


def test_check_monotone_broken_table_exits_1(tmp_path, capsys):
    values = {}
    for b in itertools.product(("0", "1", "*"), repeat=2):
        unknowns = sum(1 for s in b if s == "*")
        values[",".join(b)] = 2 if "*" not in b else 2 - unknowns
    # anti-monotone tweak: make one refinement lose value
    values["1,*"] = 2
    values["1,0"] = 0
    doc = {
        "version": 1,
        "n": 2,
        "states": ["0", "1"],
        "sample": [{"assignment": ["1", "1"], "weight": 1}],
        "costs": ["1", "1"],
        "utility": {"kind": "table", "goal": 2, "values": values},
    }
    # keep the goal on the sample row
    doc["utility"]["values"]["1,1"] = 2
    f = write_doc(tmp_path / "table.json", doc)
    assert run(["check", "--property", "monotone", "--in", f]) == 1
    assert "witness" in capsys.readouterr().out


def test_bench_directory(tmp_path, capsys):
    d = tmp_path / "instances"
    d.mkdir()
    for seed, family in ((1, "coverage"), (2, "k_of_n"), (3, "g_S")):
        assert run(["gen", "--seed", seed, "--n", 3, "--family", family,
                    "--out", d / ("i%d.json" % seed)]) == 0
    out = tmp_path / "bench.json"
    assert run(["bench", "--dir", d, "--algorithms",
                "mixed,scenario-mixed,scenario-adaptive", "--out", out]) == 0
    table = json.loads(out.read_text())
    assert len(table["rows"]) == 3
    for row in table["rows"]:
        opt = Fraction(row["optimal"])
        for algorithm in table["algorithms"]:
            assert row[algorithm]["pass"]
            assert Fraction(row[algorithm]["cost"]) >= opt


def test_bench_skips_rho_above_check_space(tmp_path, monkeypatch):
    # the bench row shares solve's guard on the rho enumeration
    refuse_partials_only(monkeypatch)
    d = tmp_path / "wide"
    d.mkdir()
    assert run(["gen", "--seed", 3, "--n", 14, "--states", 3,
                "--family", "coverage", "--sample-size", 8,
                "--out", d / "wide.json"]) == 0
    out = tmp_path / "bench.json"
    assert run(["bench", "--dir", d, "--algorithms", "mixed",
                "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["optimal"] == "oracle skipped"
    assert row["rho"] == "skipped"
    assert str(4 ** 14) in row["rho_reason"]
    assert str(MAX_CHECK_SPACE) in row["rho_reason"]
    assert row["ratio_ceiling"] is None
    assert row["mixed"]["pass"] is None


def test_bench_empty_directory(tmp_path):
    d = tmp_path / "none"
    d.mkdir()
    assert run(["bench", "--dir", d, "--algorithms", "mixed",
                "--out", tmp_path / "b.json"]) == 0


@pytest.mark.parametrize("missing, algorithms", [
    (True, "mixed"), (False, ""), (False, " , "),
], ids=["missing_directory", "no_algorithm", "blank_algorithms"])
def test_bench_without_directory_or_algorithms_exits_2(tmp_path, capsys,
                                                        missing, algorithms):
    d = tmp_path / "instances"
    if not missing:
        d.mkdir()
    out = tmp_path / "b.json"
    assert run(["bench", "--dir", d, "--algorithms", algorithms,
                "--out", out]) == 2
    assert "bounds ok" not in capsys.readouterr().out
    assert not out.exists()


def test_bench_oracle_skipped_row(tmp_path):
    d = tmp_path / "big"
    d.mkdir()
    assert run(["gen", "--seed", 4, "--n", 7, "--family", "coverage",
                "--out", d / "big.json"]) == 0
    out = tmp_path / "bench.json"
    assert run(["bench", "--dir", d, "--algorithms", "scenario-adaptive",
                "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["optimal"] == "oracle skipped"
    assert row["scenario-adaptive"]["pass"] is None


def goal_everywhere_doc():
    """A one-item table at its goal on every partial realization."""
    return {
        "version": 1,
        "n": 1,
        "states": ["0", "1"],
        "sample": [{"assignment": ["1"], "weight": 1}],
        "costs": ["1"],
        "utility": {"kind": "table", "goal": 1,
                    "values": {"*": 1, "0": 1, "1": 1}},
    }


@pytest.mark.parametrize("argv, code, message", [
    (["check", "--property", "goal", "--in", "{dir}/absent.json"], 2,
     "file not found"),
    (["bench", "--dir", "{dir}", "--algorithms", "mixed,optimal",
      "--out", "{dir}/b.json"], 2, "unknown bench algorithm 'optimal'"),
    (["check", "--property", "rho", "--in", "{dir}/goal.json"], 1,
     "rho undefined"),
], ids=["file_not_found", "bench_optimal", "rho_at_goal_everywhere"])
def test_failures_exit_with_their_code(tmp_path, capsys, argv, code, message):
    write_doc(tmp_path / "goal.json", goal_everywhere_doc())
    assert run([a.format(dir=tmp_path) for a in argv]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_table_above_goal_is_a_parse_error(tmp_path, capsys, algorithm):
    # every full realization reaches the goal, but ("0", "*") passes it:
    # the backbone solvers stopped there and the others finished, so every
    # solver now refuses the file alike, before any of them runs
    doc = off_sample_goal_doc()
    doc["utility"]["values"].update({"*,*": 0, "0,*": 3, "1,1": 2})
    infile = write_doc(tmp_path / "above.json", doc)
    assert run(["solve", "--algorithm", algorithm, "--in", infile,
                "--out", tmp_path / "o.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "table value 3 at ('0', '*') exceeds the goal 2" in err


def test_uncovered_coverage_is_a_parse_error(tmp_path, capsys):
    doc = k_of_n_doc(n=2, k=1)
    doc["utility"] = {"kind": "coverage", "universe_size": 1, "covers": {}}
    infile = write_doc(tmp_path / "uncovered.json", doc)
    assert run(["check", "--property", "goal", "--in", infile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "element 0 is uncovered" in err


def test_solve_at_goal_everywhere_writes_null_rho(tmp_path):
    infile = write_doc(tmp_path / "goal.json", goal_everywhere_doc())
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "mixed", "--in", infile,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["rho"] is None and report["eta"] is None
    assert report["ratio_ceiling"] is None
    assert report["strategy"] == {"tree": {"leaf": True}}


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algorithm", "nonsense", "--in", "x", "--out", "y"])
    assert exc.value.code == 2
