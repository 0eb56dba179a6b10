"""What the simulator's run path loads, checked in fresh interpreters.

* A run never imports numpy: host trains and pacing chains are built
  in plain Python, so CI and a benchmark host with numpy installed run
  the same code.
* ``import repro.experiments.megaflow`` loads only the modules a
  megaflow run uses. The package ``__init__``s load the rest on first
  use (DESIGN.md §7, "Set-up"), so a benchmark host that writes no
  bytecode compiles less before each run.
* Nothing is imported while a run is timed: lazy exports must not move
  compile work from set-up into the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(program: str):
    """Run *program* in a new interpreter; its last stdout line, as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_NUMPY_PROGRAM = """
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
    assert _run_fresh(_NUMPY_PROGRAM) == []


_MEGAFLOW_IMPORT = """
import json
import sys

import repro.experiments.megaflow

print(json.dumps(sorted(sys.modules)))
"""

#: Modules a megaflow run never executes.
_OFF_MEGAFLOW_PATH = (
    "repro.cli",
    "repro.sched",
    "repro.sim.shard",
    "multiprocessing",
    "repro.topology.spec",
    "repro.topology.build",
    "repro.topology.result",
    "repro.experiments.campaign",
    "repro.experiments.fig03",
    "repro.experiments.fig11",
    "repro.experiments.fig13",
    "repro.experiments.fig14",
    "repro.experiments.ablations",
    "repro.experiments.cpu_cores",
    "repro.experiments.tcp_realism",
    "repro.experiments.fabric",
    "repro.experiments.workloads",
    "repro.baselines.prio",
    "repro.baselines.dpdk_qos",
    "repro.core.offload",
    "repro.core.valve",
)


def test_megaflow_import_loads_only_its_run_path():
    loaded = set(_run_fresh(_MEGAFLOW_IMPORT))
    assert "repro.experiments.megaflow" in loaded
    assert sorted(loaded.intersection(_OFF_MEGAFLOW_PATH)) == []


_TIMED_RUN = {
    # Set-up ends when megaflow.build returns, as in perfbench.
    "megaflow": """
import json
import sys
from dataclasses import replace

from repro.experiments import megaflow

setup = replace(megaflow.DEFAULT_SETUP, seed=7)
sim, nic, sink, workloads = megaflow.build(setup, duration=0.01)
before = set(sys.modules)
sim.run(until=0.01 * setup.scale * 1.02)
assert nic.submitted > 0 and sink.total_packets > 0
print(json.dumps(sorted(set(sys.modules) - before)))
""",
    # Set-up ends when build_domains returns, as in perfbench's fabric
    # workload; the run is the barrier loop and the result assembly.
    "fabric": """
import json
import sys

from repro.experiments import fabric
from repro.topology import SimulationSpec, build

spec = SimulationSpec(
    topology=fabric.build_fabric(fabric.DEFAULT_SETUP, hosts=4),
    setup=fabric.DEFAULT_SETUP,
    duration=1.0,
    shards=1,
)
snapshots = []
build_domains = build.build_domains


def snapshot_after_build(*args, **kwargs):
    domains = build_domains(*args, **kwargs)
    snapshots.append(set(sys.modules))
    return domains


build.build_domains = snapshot_after_build
result = spec.run()
assert len(snapshots) == 1 and result.total_packets > 0
print(json.dumps(sorted(set(sys.modules) - snapshots[0])))
""",
}


@pytest.mark.parametrize("workload", sorted(_TIMED_RUN))
def test_timed_run_imports_nothing(workload):
    assert _run_fresh(_TIMED_RUN[workload]) == []
