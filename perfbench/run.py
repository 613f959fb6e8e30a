"""Host-cost benchmark of the Xenic simulator on four Figure-8 workloads.

Run from the repository root::

    python3 perfbench/run.py --workload xenic_smallbank --seed 1 \
        --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance (commit, CPU, seed, engine leg).
``--workload all`` runs every workload in turn, each in its own
process so its peak memory is its own, and prints a table.

See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)


def run_all(args) -> int:
    """Run each workload in a child process, one after another."""
    import harness

    rows = []
    for name in harness.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not lines:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, res in rows:
        if res is None:
            print("%-22s no result" % name)
            continue
        cells = ["%s=%.6g %s" % (k, m["value"], m["unit"])
                 for k, m in res["metrics"].items()]
        print("%-22s failed/attempted=%d/%d  %s"
              % (name, res["failed"], res["attempted"], "  ".join(cells)))
    return 0 if all(res is not None and res["correct"] for _, res in rows) \
        else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # measure the checkout's own sources, never an installed copy
        print("no program sources at %s" % SRC, file=sys.stderr)
        return 2

    import harness

    if args.workload == "all":
        return run_all(args)
    spec = harness.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(harness.WORKLOADS)))
    result = harness.run_workload(spec, args.seed, args.seconds,
                                  bool(args.trace), out_dir=harness.OUT_DIR)
    print("%s: failed/attempted %d/%d" % (spec.name, result["failed"],
                                          result["attempted"]))
    print(json.dumps({"provenance": result.pop("provenance")},
                     sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
