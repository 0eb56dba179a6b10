"""The simulator's run path loads nothing outside the standard library.

A fresh interpreter imports the package, its CLI and the megaflow and
fabric experiments, runs a tiny megaflow trace and a 4-host fabric,
and must never have imported numpy: every host train builder and
pacing chain is plain Python, so CI and a benchmark host with numpy
installed run the same code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROGRAM = """
import json
import sys

import repro
import repro.cli
from repro.experiments import fabric, megaflow

trace = megaflow.run(duration=0.002)
assert trace.flows > 0 and trace.perf.packets > 0, trace
ring = fabric.run(hosts=4, shards=1, duration=1.0)
assert ring.total_packets > 0, ring
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
"""


def test_run_path_never_imports_numpy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
