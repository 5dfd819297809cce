"""The functions the benchmark's tracer wraps must exist, so that a change
which drops one fails here rather than in the first traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# run in a fresh interpreter: the tracer wraps a freshly imported dsrg
PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
from spans import TARGETS
missing = [[module, attr] for module, attr, *_ in TARGETS
           if not callable(getattr(importlib.import_module("dsrg." + module),
                                   attr, None))]
print(json.dumps([len(TARGETS), missing]))
"""


def test_traced_targets_resolve():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(BENCH)],
                          capture_output=True, text=True, check=True)
    count, missing = json.loads(proc.stdout)
    assert count > 0
    assert missing == []


def test_every_workload_runs_at_toy_size():
    # test_traced_targets_resolve checks names only; a changed signature of a
    # function that a workload calls fails here.  Eight processes run at
    # once: in sequence they take about ten seconds.
    runs = {(workload, trace): subprocess.Popen(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                 "--size", "toy"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for workload in ("catalog", "tournaments", "feasible", "classify")
            for trace in (0, 1)}
    try:
        for key, proc in runs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, (key, stderr)
            last = json.loads(stdout.splitlines()[-1])
            assert last["correct"] is True, (key, stderr)
            assert last["failed"] == 0, (key, stderr)
    finally:
        for proc in runs.values():
            proc.kill()
            proc.wait()
