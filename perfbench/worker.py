"""One run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Prints one JSON object: the monotonic clock reading when set-up ended
(imports, policy compile and workload construction are done), the
run-phase wall, packets submitted, simulated goodput, the peak RSS of
this process and its shard workers, and the run's deterministic
observables. With ``--trace`` it first
installs the layer spans, runs ``fabric`` inline, and adds the per-layer
counts it measured.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds this process stays on one CPU before :func:`rotate_cpus` moves it.
ROTATE_S = 0.1


def rotate_cpus() -> None:
    """Move this process round the CPUs it may use, every ``ROTATE_S``.

    On a shared host a neighbour's load slows one CPU at a time, by up to
    1.8x and for up to a minute. A process left on one CPU takes on that
    CPU's slowdown whole; one that visits every CPU sees their average,
    as the shard workers of ``fabric`` do when they block at barriers.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    main_thread = threading.get_native_id()

    def rotate() -> None:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(main_thread, {cpu})
            time.sleep(ROTATE_S)

    threading.Thread(target=rotate, daemon=True).start()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload != "fabric":
        # Forked shard workers would inherit a single CPU.
        rotate_cpus()
    tracer = None
    if args.trace:
        from perfbench.spans import Tracer

        tracer = Tracer()
        tracer.install()
    from perfbench import workloads

    prepared = workloads.build(args.workload, args.seed, inline=args.trace)
    setup_end = prepared.run()
    run_s = time.monotonic() - setup_end
    if tracer is not None:
        # Snapshot before the observables fold lazy deliveries.
        tracer.uninstall()
        self_s, covered_s = dict(tracer.self_s), tracer.covered_s
    observables = prepared.observables()
    out = {
        "setup_end": setup_end,
        "run_s": run_s,
        "submitted": observables["submitted"],
        "goodput_bps": prepared.goodput_bps(),
        # The shard workers have been joined, so they count as children.
        "peak_rss_kib": max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ),
        "observables": observables,
    }
    if tracer is not None:
        from perfbench.spans import layer_metrics

        out["covered_s"] = covered_s
        out["layers"] = layer_metrics(tracer, self_s, prepared.parts(), observables)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
