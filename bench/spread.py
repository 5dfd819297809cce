"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--traced] [--out FILE]

Runs ``bench/run.py --trace 0`` once for each of the seeds 21 to 30 on
every workload of BENCHMARK.json, one process at a time, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, next to a third of the metric's bound.  With
``--traced`` it also keeps the per-layer metrics of one traced run per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(21, 31)


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) \
        if proc.returncode == 0 else {"correct": False}
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true",
                        help="also keep the per-layer metrics of one traced run")
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    summary = {}
    steady = True
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [bench(workload, seed, 0, seconds) for seed in SEEDS]
        summary[workload] = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = spread < bound / 3
            steady &= ok
            summary[workload][metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "values": values}
            print(f"{workload:12} {metric:12} median {statistics.median(values):10.4f}"
                  f"  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:.4f}"
                  f"  (a third of the bound: {bound / 3:.4f}){'' if ok else '  WIDE'}",
                  flush=True)
        if args.traced:
            summary[workload]["traced"] = bench(workload, SEEDS[0], 1, seconds)
    if args.out:
        summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
                   "run_seconds": declared["run_seconds"],
                   "seeds": [SEEDS[0], SEEDS[-1]],
                   "workloads": summary}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
