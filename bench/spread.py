"""Run-to-run spread of the end-to-end metrics, one seed per run.

Usage (from the repository root):

    python3 bench/spread.py [--workload sweep-default ...] [--seeds 1-10] [--seconds 20]

Without `--workload` it runs all four.  Prints, for each workload and
metric, the median with its unit and the distance between the first and
third quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread but that of
`setup_s` stays under a third of its bound.  Exits with the first failing
run's code (1 on a wrong answer), else 1 if a spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        values, units = {}, {}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, series in values.items():
            spread = stats.quartile_spread(series) if len(series) > 1 else 0.0
            bound = bounds.get(name)
            steady = name == "setup_s" or bound is None or spread < bound / 3
            status |= not steady
            print(f"{workload:16s} {name:12s} median {statistics.median(series):.6g} {units[name]} "
                  f"spread {spread:.4f} bound {bound} {'ok' if steady else 'UNSTEADY'} "
                  f"values {' '.join(f'{v:.4g}' for v in series)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
