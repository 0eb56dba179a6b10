"""The simulator's benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is any workload of
``workloads.WORKLOADS``; ``BENCHMARK.json`` lists the ones whose
figures are steady enough on a shared 2-CPU host to gate a change on.
Each operation runs ``perfbench/worker.py`` in a new process, so set-up
time and peak RSS are per run. Operations repeat until ``--seconds``
would be exceeded.

* ``--trace 0``: each repetition is one workload run, at least
  ``MIN_OPS`` of them. The last stdout line reports the end-to-end
  metrics of ``BENCHMARK.json`` as medians over the runs.
* ``--trace 1``: each repetition is an untraced run followed by a
  traced one, and the line reports the per-layer metrics.

Every run's deterministic observables must be identical across the
runs, equal to ``pinned.json`` where the seed is pinned there, and
conserve packets; an operation that diverges, raises or times out
counts as failed. Host metadata is printed on the line before the
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Untraced runs a measurement takes at least, whatever ``--seconds``.
MIN_OPS = 3
#: Wall-clock budget of one invocation; no run starts after it.
BUDGET_S = 150.0


class OpFailed(Exception):
    """One workload run raised, timed out, or broke a correctness check."""


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run ``worker.py`` once, traced or not, and return its report,
    with ``setup_s`` added."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    # A session of its own, so a timeout also stops the shard workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpFailed(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise OpFailed(f"exit code {proc.returncode}: {tail[0]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - spawned
    return report


def check(report: dict, reference: dict, pinned: dict) -> None:
    """Raise :class:`OpFailed` unless *report*'s outcome is correct."""
    obs = report["observables"]
    if pinned is not None and obs != pinned:
        raise OpFailed(f"observables differ from pinned.json: {obs}")
    if obs != reference:
        raise OpFailed(f"observables differ between runs: {obs} vs {reference}")
    if not (0 < obs["delivered"] and obs["delivered"] + obs["dropped"] <= obs["submitted"]):
        raise OpFailed(f"packets not conserved: {obs}")
    if not report["goodput_bps"] > 0:
        raise OpFailed("no goodput")


def host_metadata(load: float) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": git_commit(),
        "loadavg_1m": load,
    }


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no simulator source under src/repro", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    pinned = json.loads((BENCH / "pinned.json").read_text())
    expected = pinned[args.workload].get(str(args.seed))
    host = host_metadata(os.getloadavg()[0])

    start = time.monotonic()
    untraced, traced, failures, durations = [], [], [], []
    reference = expected
    attempted = 0

    def operation(trace: bool) -> dict:
        nonlocal attempted, reference
        attempted += 1
        report = run_worker(args.workload, args.seed, trace, start + BUDGET_S - time.monotonic())
        reference = reference or report["observables"]
        check(report, reference, expected)
        return report

    while True:
        began = time.monotonic()
        try:
            report = operation(False)
            untraced.append(report)
            print(f"perfbench: run {len(untraced)}: {report['submitted'] / report['run_s']:.0f} "
                  f"pkt/s, set-up {report['setup_s']:.3f} s", file=sys.stderr)
            if args.trace:
                # The traced run must reproduce the untraced outcome.
                traced.append((report, operation(True)))
        except (OpFailed, ValueError, KeyError, IndexError) as exc:
            failures.append(str(exc))
            print(f"perfbench: operation {attempted} failed: {exc}", file=sys.stderr)
        durations.append(time.monotonic() - began)
        next_end = time.monotonic() + median(durations)
        if next_end > start + BUDGET_S:
            break
        if len(durations) >= (1 if args.trace else MIN_OPS) and next_end > start + args.seconds:
            break

    if not (traced if args.trace else untraced):
        print("perfbench: every run failed", file=sys.stderr)
        return 1
    if args.trace:
        values = {
            name: median([t["layers"][name] for _u, t in traced])
            for name in units if not name.startswith("trace.")
        }
        values["trace.overhead_s"] = median([t["run_s"] - u["run_s"] for u, t in traced])
        values["trace.unattributed_s"] = median([t["run_s"] - t["covered_s"] for _u, t in traced])
    else:
        values = {
            "pkt_per_s": median([r["submitted"] / r["run_s"] for r in untraced]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mib": median([r["peak_rss_kib"] / 1024 for r in untraced]),
            "sim_goodput_gbps": median([r["goodput_bps"] / 1e9 for r in untraced]),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "runs": len(untraced), "observables": reference}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
