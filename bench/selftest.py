"""Self-test of the benchmark: every workload at toy size.

    python3 bench/selftest.py

Runs ``bench/run.py --size toy`` for each workload, untraced and traced,
and checks that each run passes its output checks, emits exactly the
metric names of BENCHMARK.json with their units, writes its record (and
spans, when traced), and that every per-layer metric is non-zero on at
least one workload.  It also checks that the benchmark fails without a
result when the library sources are missing, and that the independent
isomorphism checker accepts a relabelled tournament.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, _isomorphic  # noqa: E402


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=300)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            if proc.returncode:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or \
                    not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result} {proc.stderr}")
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
            stem = ROOT / ".bench_out" / f"{workload}-toy-seed7"
            record = json.loads(Path(f"{stem}-trace{trace}.json").read_text())
            for key in ("git_revision", "python", "nproc", "seed", "source_sha256"):
                if key not in record:
                    problems.append(f"{workload}: record lacks {key}")
            if trace and not Path(f"{stem}.spans.json").is_file():
                problems.append(f"{workload}: no spans file")
            print(f"{workload:12} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks", flush=True)
    never = [m["name"] for m in declared["per_layer"] if m["name"] not in nonzero
             and m["name"] not in ("constructions.failures", "trace.overhead_s")]
    if never:
        problems.append(f"per-layer metrics zero on every workload: {never}")

    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = bare / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    proc = run(bare, "feasible", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark did not fail without the library sources")
    shutil.rmtree(bare)

    rng = random.Random(1)
    rows = [sum(1 << ((i + d) % 7) for d in (1, 2, 4)) for i in range(7)]
    images = list(range(7))
    rng.shuffle(images)
    relabelled = [0] * 7
    for i, r in enumerate(rows):
        relabelled[images[i]] = sum(1 << images[j] for j in range(7) if r >> j & 1)
    if not _isomorphic(rows, relabelled):
        problems.append("independent checker rejects a relabelled tournament")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
