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
