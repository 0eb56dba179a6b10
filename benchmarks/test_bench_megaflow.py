"""E-MEGAFLOW bench — the million-flow batched trace engine.

A 2-nominal-second heavy-tailed mix (KVS mice + web transfers + ML
elephants at 75% link load) pushes 1.14M distinct flows and 1.97M
packets through the full NIC pipeline. Every flow's first packet
misses the exact-match cache, so this pins the three scaling
mechanisms together (DESIGN.md §12):

* **Event budget** (hard asserts): exact event/packet/flow counts for
  the seeded run, and the acceptance ceiling of <= 0.5 events/packet
  (measured: 0.103) — the fluid lane's classification replay keeps
  EMC misses off the eventful path.
* **Constant memory** (hard asserts): the sketch-mode sink's occupied
  buckets stay in the hundreds while 1.86M delay samples stream
  through, every workload ledger folds away, and process peak RSS
  stays far below what per-packet or per-flow state would cost.
* **Artifact**: ``BENCH_megaflow.json`` — the counts above with the
  flow/cache/sketch tallies for localizing a regression.
"""

import os
import resource

from conftest import run_once

from repro.experiments import megaflow
from repro.stats.perf import write_json

#: Exact counts for the seeded canonical run (seed 7, scale 200, 2
#: nominal seconds, batched engines, fluid classify on) —
#: deterministic on any machine.
EXPECTED_FLOWS = 1_139_315
EXPECTED_PACKETS = 1_968_187
EXPECTED_EVENTS = 203_531

#: The headline acceptance ceiling from the issue: the engine must
#: hold a million-flow trace under half an event per packet.
EVENTS_PER_PACKET_CEILING = 0.5

#: Peak-RSS bound (KiB). The run measures ~113 MiB end to end (115,912
#: KiB on a 2-vCPU Linux container, Python 3.11); holding per-packet
#: kernel items or delivery records, a float or int object per
#: emission instant, per-flow generator state such as an address
#: string or port int per five-tuple, or every window's ledger would
#: cost tens of MiB to gigabytes, which is the failure mode this guards
#: against. The 1.7x headroom covers allocator/platform variance and
#: earlier tests in the same process (ru_maxrss is process-lifetime).
PEAK_RSS_CEILING_KIB = 192 * 1024


def test_megaflow_events_per_packet(benchmark, emit):
    run = run_once(benchmark, megaflow.run)

    # Determinism guards: exact counts for seed 7, any machine.
    assert run.flows == EXPECTED_FLOWS
    assert run.perf.packets == EXPECTED_PACKETS
    assert run.perf.events == EXPECTED_EVENTS

    epp = run.perf.events_per_packet
    emit(
        f"megaflow: {run.flows:,} flows, {run.perf.events:,} events / "
        f"{run.perf.packets:,} packets = {epp:.4f} ev/pkt "
        f"(emc: {run.emc_evictions:,} evictions, hit ratio "
        f"{run.emc_hit_ratio:.3f}; sketch bins {run.sketch_bins}; "
        f"peak RSS {run.peak_rss_kib // 1024} MiB; "
        f"wall {run.perf.wall_seconds:.1f}s)"
    )

    # The acceptance gates: a million distinct flows under the event
    # ceiling, with million-entry cache churn actually exercised.
    assert run.flows >= 1_000_000
    assert epp <= EVENTS_PER_PACKET_CEILING
    assert run.emc_misses == run.flows  # every flow's first packet
    assert run.emc_evictions >= 1_000_000
    assert run.miss_absorbed > 0.9 * run.emc_misses

    # Constant-memory gates: the sink's delay stats occupy hundreds of
    # buckets (not 1.86M samples), the generators folded every window
    # ledger into scalars, and the process stayed bounded.
    assert run.sketch_bins < 4_096
    assert run.windows > 0
    assert run.peak_rss_kib <= PEAK_RSS_CEILING_KIB
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss <= PEAK_RSS_CEILING_KIB

    out = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "BENCH_megaflow.json")
    )
    write_json(
        out,
        run.perf,
        extra={
            "seed": megaflow.DEFAULT_SETUP.seed,
            "shards": 1,
            # Recorded workload, so artifacts of the three benches
            # cannot be mistaken for one another.
            "workload": "trace",
            **run.extra(),
        },
    )
