"""Benchmark of the dsrg library, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nowhere else.  One process runs one
workload (``catalog``, ``tournaments``, ``feasible``, ``classify``):
it sets up several times, then repeats the timed call until ``--seconds``
would be exceeded (at least once), checking every output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced calls, timed by ``hostspeed.HostClock`` so that the host's speed
swings cancel.  ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics from the spans, plus the tracing overhead.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` (output checks run and failed) and ``metrics``.  A fuller record
(revision, Python version, nproc, seed, all iteration times, drift of the
reference work counts) goes to ``.bench_out/``, with the spans of a traced
run next to it.  ``--size toy`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import HostClock
from spans import Tracer, layer_metrics, median_metrics, span_cost_s
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("adjio", "cli", "constructions", "groups", "iso", "matrix",
           "params", "tournaments")

# Work counts of the full-size workloads that repeat exactly.  A traced run
# flags any difference as drift; drift is reported, not counted as a failed
# check, because an algorithmic change may move these counts legitimately.
REFERENCE_COUNTS = {
    "catalog": {"constructions.results": 165},
    "tournaments": {"tournaments.candidates": 11536,
                    "iso.are_isomorphic_calls": 11953},
    "feasible": {"params.feasible_candidates": 172340},
}


def import_lib() -> SimpleNamespace:
    """Import dsrg afresh from SRC (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "dsrg" or m.startswith("dsrg.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"dsrg.{m}") for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dsrg imported from {lib.cli.__file__}, not {SRC}")
    return lib


def set_up(workload, seed: int) -> SimpleNamespace:
    lib = import_lib()
    workload.setup(lib, seed)
    return lib


def percentile_ms(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return 1e3 * samples[0]
    return 1e3 * statistics.quantiles(samples, n=100)[q - 1]


def provenance(args: argparse.Namespace) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dsrg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_revision": revision,
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "dsrg" / "__init__.py").is_file():
        print(f"error: no dsrg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.size == "full", OUT)
    tracer = clock = None

    setup_times, setup_normalised = [], []
    if args.trace:
        gc.collect()
        t = perf_counter()
        lib = import_lib()
        tracer = Tracer(lib)
        t0 = perf_counter()
        tracer.install()
        workload.setup(lib, args.seed)
        tracer.uninstall()
        setup_times.append(perf_counter() - t)
        setup_range = (0, len(tracer.spans))
    else:
        clock = HostClock()
        for _ in range(workload.setup_reps):
            gc.collect()
            lib, wall, normalised = clock.time(set_up, workload, args.seed)
            setup_times.append(wall)
            setup_normalised.append(normalised)

    checks = Checks()
    untraced, untraced_normalised, traced, per_iteration, samples = [], [], [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        if clock:
            (output, latencies), wall, normalised = clock.time(workload.run)
            untraced_normalised.append(normalised)
        else:
            t = perf_counter()
            output, latencies = workload.run()
            wall = perf_counter() - t
        untraced.append(wall)
        samples.extend(latencies or [])
        workload.check(output, checks)
        del output  # so that peak_rss_mb does not depend on the call count
        if tracer:
            lo = len(tracer.spans)
            gc.collect()
            tracer.install()
            t = perf_counter()
            output, _ = workload.run()
            traced.append(perf_counter() - t)
            tracer.uninstall()
            per_iteration.append(
                layer_metrics(tracer.spans, lo, len(tracer.spans), setup_range))
            workload.check(output, checks)
            del output
        elapsed = perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    graph = {"classify.graph_p50_ms": percentile_ms(samples, 50) if samples else 0.0,
             "classify.graph_p99_ms": percentile_ms(samples, 99) if samples else 0.0,
             "classify.graph_samples": len(samples)}
    if tracer:
        metrics = median_metrics(per_iteration)
        metrics.update(graph)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        cost = span_cost_s()
        metrics["trace.span_cost_us"] = 1e6 * cost
        metrics["trace.overhead_est_s"] = cost * metrics["trace.spans"]
    else:
        metrics = {
            "norm_wall_s": statistics.median(untraced_normalised),
            "setup_s": statistics.median(setup_normalised),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    drift = {}
    if tracer and args.size == "full":
        for key, want in REFERENCE_COUNTS.get(args.workload, {}).items():
            if metrics[key] != want:
                drift[key] = {"reference": want, "measured": metrics[key]}
                print(f"drift: {key} = {metrics[key]}, reference {want}",
                      file=sys.stderr)
    for message in checks.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    record = provenance(args) | {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "untraced_s": untraced, "untraced_normalised_s": untraced_normalised,
        "traced_s": traced, "setup_s": setup_times,
        "setup_normalised_s": setup_normalised,
        "checks_attempted": checks.attempted, "checks_failed": len(checks.failures),
        "failures": checks.failures[:100], "drift": drift,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT / f"{stem}.spans.json", t0)
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
