"""Cross-shard determinism suite (DESIGN.md §11).

The sharded engine's headline contract: for a fixed spec, ``shards=N``
is *byte-identical* to ``shards=1`` — same per-delivery record stream
(app, seq, exact ``repr`` of the delivery timestamp), same drop
records and reasons, same rate series, same event counts. The suite
runs a fig11-style multi-host workload both ways and compares
everything except wall clock.

These tests spawn real worker processes (fork), so they are a few
seconds each — durations are kept short.
"""

import pytest

import repro.sim.shard as shard_engine
from repro.experiments.policies import motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.topology import ScaledSetup, SimulationSpec, Topology


def ring_spec(hosts, duration, *, scale=2000.0, prop=5e-5, fluid=True,
              **spec_kwargs):
    """A fig11-style ring: every host runs the motivation policy and
    demand timeline; NIC i's wire terminates at host (i+1) % hosts."""
    setup = ScaledSetup(scale=scale)
    demands = sorted(motivation_demands(setup.nominal_link_bps).items())
    config = {} if fluid else {"fluid": False}
    topo = Topology()
    for i in range(hosts):
        topo.nic(f"nic{i}", motivation_policy(setup.link_bps), **config)
        topo.host(f"host{i}", nic=f"nic{i}")
        for app, demand in demands:
            topo.app(f"host{i}", app, demand=demand)
        topo.wire(f"nic{i}", to=f"nic{(i + 1) % hosts}", propagation_delay=prop)
    return SimulationSpec(
        topology=topo, setup=setup, duration=duration, **spec_kwargs
    )


def assert_identical(a, b):
    """Field-by-field equality of two results, wall clock excluded."""
    assert a.windows == b.windows
    assert a.degraded == b.degraded
    assert sorted(a.domains) == sorted(b.domains)
    for name in a.domains:
        left, right = a.domains[name], b.domains[name]
        assert left.records == right.records, f"{name}: delivery records differ"
        assert left.drop_records == right.drop_records, f"{name}: drops differ"
        assert left.series == right.series, f"{name}: rate series differ"
        assert left.packets == right.packets
        assert left.bytes == right.bytes
        assert left.drops_by_reason == right.drops_by_reason
        assert (left.delivered, left.submitted, left.dropped, left.events) == (
            right.delivered, right.submitted, right.dropped, right.events
        )


class TestByteIdentity:
    def test_two_hosts_one_vs_two_shards(self):
        spec = ring_spec(2, duration=1.5, collect_records=True)
        single = spec.with_shards(1).run()
        double = spec.with_shards(2).run()
        assert single.shards == 1 and double.shards == 2
        assert single.total_packets > 0, "workload must actually deliver"
        assert_identical(single, double)

    def test_four_hosts_one_vs_four_shards(self):
        spec = ring_spec(4, duration=1.0, collect_records=True)
        assert_identical(spec.with_shards(1).run(), spec.with_shards(4).run())

    def test_fast_lane_totals_match_across_shards(self):
        # Without collect_records the sinks stay on the lazy/batched
        # fast path — totals and series must still be identical.
        spec = ring_spec(2, duration=1.5)
        single = spec.with_shards(1).run()
        double = spec.with_shards(2).run()
        assert single.total_packets == double.total_packets > 0
        assert single.total_events == double.total_events
        for name in single.domains:
            assert single.domains[name].series == double.domains[name].series

    def test_windows_depend_on_topology_not_shards(self):
        spec = ring_spec(2, duration=1.5)
        assert spec.with_shards(1).plan().window == spec.with_shards(2).plan().window
        assert spec.with_shards(1).run().windows == spec.with_shards(2).run().windows

    def test_window_override_preserves_identity(self):
        spec = ring_spec(2, duration=1.0, collect_records=True, window=0.05)
        single = spec.with_shards(1).run()
        double = spec.with_shards(2).run()
        assert single.windows == double.windows > 10
        assert_identical(single, double)

    def test_remote_traffic_actually_crosses_domains(self):
        # Every delivery at a sink arrived over a wire from the
        # neighbouring domain — seqs must come from the *other* bank.
        spec = ring_spec(2, duration=1.0, collect_records=True)
        result = spec.with_shards(2).run()
        bank = 1 << 40
        nic0_seqs = [seq for _, seq, _ in result.domains["nic0"].records]
        assert nic0_seqs, "nic0 saw no remote deliveries"
        assert all(seq >= bank for seq in nic0_seqs), (
            "nic0's sink terminates nic1's wire; its deliveries must "
            "carry domain 1's sequence bank"
        )


class TestCoordinatorTraffic:
    def test_coordinator_carries_only_cross_shard_shipments(self, monkeypatch):
        """Shards route their own trains: the coordinator sees only the
        shipments that cross the shard cut. Contiguous blocks put
        nic0/nic1 on shard 0 and nic2/nic3 on shard 1, so on the ring
        only nic1→nic2 and nic3→nic0 cross it."""
        spec = ring_spec(4, duration=1.0, collect_records=True)
        plan = spec.with_shards(2).plan()
        assert plan.assignment == (0, 0, 1, 1)
        shipped = []
        recv = shard_engine._recv

        def spy(conn, deadline, shard, process):
            message = recv(conn, deadline, shard, process)
            if message[0] == "out":
                shipped.extend(message[2])
            return message

        monkeypatch.setattr(shard_engine, "_recv", spy)
        double = spec.with_shards(2).run()
        assert shipped, "no shipment crossed the shard cut"
        for src, dst, _records in shipped:
            assert plan.assignment[src] != plan.shard_of(dst)
        assert {(src, dst) for src, dst, _ in shipped} == {(1, "nic2"), (3, "nic0")}
        assert_identical(spec.with_shards(1).run(), double)


class TestFluidCrossProduct:
    """ISSUE 9's identity matrix: fluid on/off x shards 1/2/4.

    Within one fluid setting every shard count must be byte-identical —
    *including* the kernel-event count, now that the carry horizon
    makes absorption decisions window-invariant (DESIGN.md §11). Across
    fluid settings every observable (records, drops, series, tallies)
    must be identical too; only the event count drops when the lane
    engages.
    """

    def test_record_streams_identical_across_matrix(self):
        # collect_records installs a drop callback, which keeps the
        # fluid lane off (recording wrappers are eventful) — so both
        # config values exercise the construction guard and must land
        # in the same per-packet world at every shard count.
        runs = []
        for fluid in (True, False):
            spec = ring_spec(4, duration=1.0, collect_records=True, fluid=fluid)
            for shards in (1, 2, 4):
                runs.append(spec.with_shards(shards).run())
        first = runs[0]
        assert first.total_packets > 0
        for other in runs[1:]:
            assert_identical(first, other)

    def test_fast_lane_matrix_tallies_and_event_counts(self):
        # Without recording the lane engages (fluid on) or stays off
        # (fluid off). Event counts — kernel *and* per-domain — plus the
        # lane counters must be shard-invariant within each setting;
        # tallies and series must agree across all six runs.
        base_by_fluid = {}
        for fluid in (True, False):
            spec = ring_spec(4, duration=1.0, fluid=fluid)
            base = spec.with_shards(1).run()
            for shards in (2, 4):
                other = spec.with_shards(shards).run()
                assert other.total_events == base.total_events
                assert other.total_packets == base.total_packets
                for name in base.domains:
                    left, right = base.domains[name], other.domains[name]
                    assert left.series == right.series
                    assert left.events == right.events
                    assert (
                        left.fluid_absorbed, left.fluid_spills, left.fluid_suspends
                    ) == (
                        right.fluid_absorbed, right.fluid_spills, right.fluid_suspends
                    )
            base_by_fluid[fluid] = base
        on, off = base_by_fluid[True], base_by_fluid[False]
        assert on.total_packets == off.total_packets > 0
        assert on.total_submitted == off.total_submitted
        assert on.total_dropped == off.total_dropped
        for name in on.domains:
            assert on.domains[name].series == off.domains[name].series
        # The lane must actually engage on boundary NICs and pay off.
        assert on.total_fluid_absorbed > 0
        assert off.total_fluid_absorbed == 0
        assert on.total_events < off.total_events


class TestDegradedFallback:
    def test_zero_propagation_completes_with_warning(self):
        spec = ring_spec(2, duration=1.0, prop=0.0, collect_records=True)
        with pytest.warns(UserWarning, match="zero propagation delay"):
            result = spec.with_shards(2).run()
        assert result.degraded
        assert result.shards == 1
        assert result.total_packets > 0
        assert "degraded" in result.notes

    def test_degraded_tallies_match_windowed_run(self):
        # Same workload, positive lookahead vs zero: submission is
        # driven by the (identical) per-domain demand streams, so the
        # degraded fold must account the same offered load. Delivery
        # differs only through the wire delay — at scale 2000 the
        # 5e-5 s nominal propagation is 0.1 simulated seconds, which
        # strands in-flight tail frames at the horizon in the windowed
        # run. Zero delay delivers those too, so the degraded total can
        # only be at least as large.
        windowed = ring_spec(2, duration=1.0, prop=5e-5).run()
        with pytest.warns(UserWarning):
            degraded = ring_spec(2, duration=1.0, prop=0.0).run()
        assert degraded.total_submitted == windowed.total_submitted
        assert degraded.total_packets >= windowed.total_packets > 0
