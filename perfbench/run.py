"""The repository's benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload g1-query --seed 1 --seconds 15 \
        --trace 0

Workloads (see perfbench/record.json for their parameters):

* ``g1-query``  — in-process relational and single-path queries on g1;
* ``dyck-deep`` — the same ops on the worst-case Dyck graph;
* ``serve-hot`` — cache-hit ``query`` probes against ``serve`` on g1;
* ``serve-churn`` — a WAL-writing leader under open-loop updates and
  ``batch`` reads on funding, then follower replay.

``--workload all`` runs the four in turn.  Every run checks every
answer and exits non-zero on a mismatch.  Readable figures come first,
one per line; the last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a separate traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

from common import CheckFailed, Result, pin_to_one_cpu, \
    use_checkout_sources

LIBRARY = ("g1-query", "dyck-deep")
SERVING = ("serve-hot", "serve-churn")
WORKLOADS = LIBRARY + SERVING


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    use_checkout_sources()
    result = Result(name)
    cpu = pin_to_one_cpu()
    result.note("pinned_cpu", "none" if cpu is None else cpu)
    try:
        if name in LIBRARY:
            import library

            library.run(name, seed, seconds, trace, result)
        else:
            import serving

            serving.run(name, seed, seconds, trace, result)
    except CheckFailed as failure:
        for line in result.text_lines(trace):
            print(line)
        print(f"{name} CHECK FAILED: {failure}", file=sys.stderr)
        print(result.render(trace, correct=False))
        return 1
    for line in result.text_lines(trace):
        print(line)
    print(result.render(trace))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, ValueError):
            outcome = None
        if completed.returncode != 0 or outcome is None:
            status = 1
            combined["correct"] = False
            if outcome is None:
                continue
        combined["correct"] &= outcome["correct"]
        combined["attempted"] += outcome["attempted"]
        combined["failed"] += outcome["failed"]
        for metric, value in outcome["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks node pairs, edges and request streams")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured phase; sample "
                             "counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "pass instead of the end-to-end metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
