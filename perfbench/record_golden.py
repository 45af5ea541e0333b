"""Record the exact outputs of each workload's golden ops.

    python3 perfbench/record_golden.py serve build certify

This sets each named workload up, runs one cycle and stores the exact cost
and digest of every output of its golden ops (inputs from fixed seeds, the
same in every run) in `perfbench/golden.json`.  Every run compares its
golden ops with the record and counts each mismatch as a failed op, so a
change that alters any tree, session or cost shows up as a failure.  Re-record only for a change
that states why outputs change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(bench.ROOT / "src"))
    from workloads import WORKLOADS

    path = bench.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads:
        with bench.work_dir("golden") as workdir:
            workload = WORKLOADS[name](0, workdir)
            workload.passes = 1
            run = bench.Run(workload, seconds=0)
            run.measure()
        if run.failed:
            print("%s: %d failed ops, not recorded" % (name, len(run.failed)))
            return 1
        golden[name] = sorted([r.key, str(r.cost), r.digest]
                              for key in run.golden_keys for r in run.records[key])
        print("%s: %d records" % (name, len(golden[name])), flush=True)
    lines = []
    for name in sorted(golden):
        rows = ",\n".join("  " + json.dumps(row) for row in golden[name])
        lines.append(' "%s": [\n%s\n ]' % (name, rows))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
