"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1 over
the median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them).

    python3 perfbench/steady.py --workloads g1-query serve-hot \
        --seeds 1 2 3 4 5 6 7 8 9 10

With ``--record`` the spreads are written into perfbench/record.json
under ``spreads``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import HERE

RECORD = os.path.join(HERE, "record.json")


def measure(workload: str, seeds, seconds: float) -> dict:
    values: dict = {}
    for seed in seeds:
        began = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        elapsed = time.perf_counter() - began
        outcome = json.loads(completed.stdout.splitlines()[-1])
        if completed.returncode != 0 or not outcome["correct"]:
            raise SystemExit(f"{workload} seed {seed} failed")
        for name, metric in outcome["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("run_wall_s", []).append(elapsed)
        print(f"{workload} seed {seed}: {elapsed:.1f}s", file=sys.stderr)
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "values": series}
    return summary


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--record", action="store_true",
                        help="store the spreads in perfbench/record.json")
    args = parser.parse_args(argv)
    results = {workload: measure(workload, args.seeds, args.seconds)
               for workload in args.workloads}
    print(json.dumps(results, indent=2))
    if args.record:
        with open(RECORD, encoding="utf-8") as handle:
            record = json.load(handle)
        spreads = record.setdefault("spreads", {})
        for workload, summary in results.items():
            spreads[workload] = {
                "seeds": args.seeds,
                "seconds": args.seconds,
                "metrics": {name: {"median": round(entry["median"], 6),
                                   "spread": round(entry["spread"], 4)}
                            for name, entry in summary.items()
                            if name != "run_wall_s"},
                "run_wall_s_median": round(
                    summary["run_wall_s"]["median"], 1),
            }
        with open(RECORD, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
