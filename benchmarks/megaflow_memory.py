"""Traced memory of the benchmark's megaflow workload.

    python3 benchmarks/megaflow_memory.py [--seed 7] [--out megaflow-memory.txt]

Run from the root of a checkout. Builds perfbench's ``megaflow``
workload and runs it once under :mod:`tracemalloc`, reporting

* the run's traced peak;
* each trace window's generation peak: the traced peak while
  ``TraceWorkload._emit_window`` built and submitted that window;
* the late-run peak: the highest traced memory at ``PROBES`` evenly
  spaced instants of the run, and the 15 largest allocation sites
  there. The sites come from a second run to that instant, so the
  first run's probes hold no snapshot while they measure.

tracemalloc slows the run several-fold; the figures are Python heap
bytes, not RSS. Set ``PYTHONHASHSEED=0`` to match perfbench's runs.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20
#: Instants of the run at which traced memory is read.
PROBES = 60
#: Allocation sites listed at the late-run peak.
TOP_SITES = 15


def build(seed: int):
    """``(prepared, horizon)``: a fresh megaflow workload and the scaled
    instant where perfbench stops it. Hold *prepared* for the whole
    run, as perfbench does: it keeps the workloads, whose ledgers
    outlive their last window step, alive."""
    from perfbench import workloads
    from repro.experiments import megaflow

    horizon = workloads.MEGAFLOW_DURATION * megaflow.DEFAULT_SETUP.scale * 1.02
    return workloads.build("megaflow", seed), horizon


def run_to(prepared, at: float) -> None:
    """Advance *prepared*'s simulation to scaled instant *at*."""
    [(sim, _nic, _sink)] = prepared.parts()
    sim.run(until=at)


def site(stat) -> str:
    """*stat*'s allocating line, relative to the checkout when inside it."""
    frame = stat.traceback[0]
    path = Path(frame.filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{frame.lineno}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="megaflow-memory.txt")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.host.workload_gen import TraceWorkload

    windows = []
    emit_window = TraceWorkload._emit_window

    def traced_emit_window(workload, start, end):
        # reset_peak() forgets the run's peak so far: fold it in first.
        windows.append([workload.app, start, tracemalloc.get_traced_memory()[1]])
        tracemalloc.reset_peak()
        emit_window(workload, start, end)
        windows[-1].append(tracemalloc.get_traced_memory()[1])

    TraceWorkload._emit_window = traced_emit_window
    tracemalloc.start()
    prepared, horizon = build(args.seed)
    probes = []
    for k in range(1, PROBES + 1):
        at = horizon * k / PROBES
        run_to(prepared, at)
        probes.append((tracemalloc.get_traced_memory()[0], at))
    run_peak = max([tracemalloc.get_traced_memory()[1]] + [w[2] for w in windows])
    TraceWorkload._emit_window = emit_window
    late_bytes, late_at = max(probes)
    del prepared
    tracemalloc.stop()
    gc.collect()

    tracemalloc.start()
    prepared, _ = build(args.seed)
    run_to(prepared, late_at)
    sites = tracemalloc.take_snapshot().statistics("lineno")[:TOP_SITES]
    tracemalloc.stop()

    lines = [
        f"megaflow seed {args.seed}: traced peak {run_peak / MIB:.1f} MiB",
        "",
        "window generation peaks (app, window start in scaled s, MiB):",
    ]
    lines += [f"  {app:4s} {start:8.3f}  {peak / MIB:6.1f}"
              for app, start, _before, peak in windows]
    lines += [
        "",
        f"late-run peak: {late_bytes / MIB:.1f} MiB at {late_at:.2f} of "
        f"{horizon:.2f} scaled s; top {TOP_SITES} allocation sites:",
    ]
    lines += [f"  {stat.size / MIB:6.2f} MiB {stat.count:9d} blocks  {site(stat)}"
              for stat in sites]
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
