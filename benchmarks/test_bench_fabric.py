"""E-FABRIC bench — kernel-event budget of the sharded ring fabric.

The single-NIC hot path runs at 0.083 events/packet; before the fluid
lane learned to emit and absorb cross-shard wire trains the fabric
forfeited that and paid ~4.2 (boundary NICs fell back to the
per-packet fast path). This bench pins the recovered budget:

* **Deterministic** (hard asserts): exact event/packet counts of the
  seeded 8-host ring, the events/packet ceiling (<= 0.2, within 2x of
  the single-NIC ratio), bit-identical tallies across shard counts and
  with the lane off, and the exact fluid-off event count (the
  fallback-exactness guard, as in the hot-path bench).
* **Artifact**: ``BENCH_fabric.json`` — recorded at ``shards=2``,
  with the lane counters and per-domain event breakdown for
  localizing a regression.
"""

import os

from conftest import run_once

from repro.experiments import fabric
from repro.stats.perf import write_json

#: Expected counts for the seeded fabric run (seed 7, 8 hosts, 2 s,
#: scale 2000) — deterministic on any machine and for any shard count.
#: 981 events / 6,028 packets = 0.163 ev/pkt with the fluid lane
#: emitting/absorbing boundary trains (was 25,160 / 4.17 with the lane
#: disengaged on boundary NICs).
EXPECTED_EVENTS = 981
EXPECTED_PACKETS = 6_028

#: With the lane off the fabric must reproduce the per-packet fast
#: path exactly — the same fallback-exactness contract the single-NIC
#: bench pins with its fluid-off count.
EXPECTED_EVENTS_FLUID_OFF = 25_160

HOSTS = 8
DURATION = 2.0

#: The single-NIC hot-path ratio (BENCH_hotpath.json); the acceptance
#: target is the fabric within 2x of it.
SINGLE_NIC_EVENTS_PER_PACKET = 14_843 / 179_154


def _tallies(result: fabric.FabricResult):
    return (
        result.total_packets,
        result.total_submitted,
        result.total_dropped,
        result.app_rates,
    )


def test_fabric_events_per_packet(benchmark, emit):
    run = run_once(
        benchmark,
        lambda: fabric.run(hosts=HOSTS, shards=2, duration=DURATION),
    )

    # Determinism guards: exact counts for seed 7, any machine.
    assert run.total_events == EXPECTED_EVENTS
    assert run.total_packets == EXPECTED_PACKETS

    epp = run.events_per_packet
    emit(
        f"fabric{HOSTS}-shards2: {run.total_events} events / "
        f"{run.total_packets} packets = {epp:.4f} ev/pkt "
        f"(lane: {run.fluid_absorbed} absorbed, {run.fluid_spills} "
        f"spilled, {run.fluid_suspends} suspends; wall {run.wall_seconds:.2f}s)"
    )

    # The acceptance ceiling: <= 0.2 ev/pkt on the 8-host ring, within
    # 2x of the single-NIC hot path. Both are deterministic ratios.
    assert epp <= 0.2
    assert epp <= 2.0 * SINGLE_NIC_EVENTS_PER_PACKET
    # The lane must be doing the work, not a workload shrink: nearly
    # everything submitted is absorbed analytically.
    assert run.fluid_absorbed > 0.99 * (run.fluid_absorbed + run.fluid_spills)

    result = run.perf(
        f"fabric{HOSTS}-shards2-scale{fabric.DEFAULT_SETUP.scale:g}-{DURATION:g}s"
    )
    out = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "BENCH_fabric.json")
    )
    write_json(
        out,
        result,
        extra={
            "seed": fabric.DEFAULT_SETUP.seed,
            "hosts": HOSTS,
            # Recorded shard count (the hot-path artifact records 1).
            "shards": 2,
            "workers": run.workers,
            "fluid_absorbed": run.fluid_absorbed,
            "fluid_spills": run.fluid_spills,
            "fluid_suspends": run.fluid_suspends,
            "domain_events": run.domain_events,
        },
    )


def test_fabric_shard_counts_are_identical(emit):
    """shards=1 and shards=2 must agree on every deterministic field —
    including the kernel-event total, now that absorption decisions are
    window-invariant (the carry horizon looks through barriers)."""
    r1 = fabric.run(hosts=HOSTS, shards=1, duration=DURATION)
    r2 = fabric.run(hosts=HOSTS, shards=2, duration=DURATION)
    assert _tallies(r1) == _tallies(r2)
    assert r1.total_events == r2.total_events == EXPECTED_EVENTS
    assert r1.domain_events == r2.domain_events
    assert (r1.fluid_absorbed, r1.fluid_spills, r1.fluid_suspends) == (
        r2.fluid_absorbed, r2.fluid_spills, r2.fluid_suspends
    )
    emit(f"shards 1 vs 2: identical ({r1.total_events} events)")


def test_fabric_fluid_off_reproduces_packet_path(emit):
    """The lane off must replay the per-packet fabric exactly: same
    tallies, and the exact pre-fluid event count."""
    on = fabric.run(hosts=HOSTS, shards=1, duration=DURATION)

    from repro.topology import ScaledSetup

    class NoFluidSetup(ScaledSetup):
        def nic_config(self, **overrides):
            overrides.setdefault("fluid", False)
            return super().nic_config(**overrides)

    # Same construction as fabric.DEFAULT_SETUP, lane off.
    off = fabric.run(
        NoFluidSetup(scale=2000.0), hosts=HOSTS, shards=1, duration=DURATION
    )
    assert _tallies(on) == _tallies(off)
    assert off.total_events == EXPECTED_EVENTS_FLUID_OFF
    assert (off.fluid_absorbed, off.fluid_spills, off.fluid_suspends) == (0, 0, 0)
    emit(
        f"fluid off: {off.total_events} events (on: {on.total_events}, "
        f"{off.total_events / on.total_events:.1f}x cut), tallies identical"
    )
