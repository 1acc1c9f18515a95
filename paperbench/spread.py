"""Seed-spread report: each DES workload once on several seeds.

A change that alters reduction order (and so the last digits of the loss)
cannot show bit-identical ``final_loss``; it can show that its loss stays
within the spread across seeds that this report records.  Run from the
root of a checkout::

    python3 paperbench/spread.py --seeds 1,2,3,4,5 > spread.json

Each workload runs once per seed in a fresh process, untraced, with the
same checks as ``run.py``.  The last line of standard output is one JSON
object: per workload, the per-seed values and the minimum, median,
maximum and interquartile range over median of ``final_loss`` and
``iters_per_s``, plus the number of failed runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rep import WORKLOADS  # noqa: E402
from run import HARD_LIMIT_S, spawn_rep  # noqa: E402


def summarize(values: List[float]) -> Dict[str, float]:
    """Minimum, median, maximum and (Q3 - Q1) / median of ``values``."""
    median = statistics.median(values)
    summary = {"min": min(values), "median": median, "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["iqr_frac"] = (q3 - q1) / median
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated workload seeds")
    parser.add_argument("--quick", action="store_true",
                        help="tiny horizons (self-test only)")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]

    report = {}
    for name, spec in WORKLOADS.items():
        if spec.multiprocess:
            continue
        per_seed = {}
        failed = 0
        for seed in seeds:
            record = spawn_rep(name, seed, False, args.quick, HARD_LIMIT_S)
            if record["errors"]:
                failed += 1
                print(f"{name} seed {seed}: {record['errors']}", file=sys.stderr)
                continue
            per_seed[seed] = {
                "final_loss": record["final_loss"],
                "iters_per_s": record["iterations"] / record["run_s"],
            }
            print(f"{name} seed {seed}: {per_seed[seed]}", file=sys.stderr)
        report[name] = {"failed": failed, "per_seed": per_seed}
        for metric in ("final_loss", "iters_per_s"):
            values = [row[metric] for row in per_seed.values()]
            if values:
                report[name][metric] = summarize(values)
    print(json.dumps(report))
    return 0 if all(entry["failed"] == 0 for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
