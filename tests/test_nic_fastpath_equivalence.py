"""Fast-vs-slow path equivalence: the bit-exactness contract.

``NicConfig.fast_path`` selects between the batched single-wakeup
engine and the multi-yield slow path (DESIGN.md §7). The contract is
not "statistically close" — it is *bit-identical observable
behaviour*: same verdict for every packet, same drop reasons, same
per-app delivered bytes, same sink arrival order. These tests run two
seeded workloads (the Fig. 11(a) motivation mix and a Fig. 13-style
full-rate fair-queueing blast) both ways and compare the complete
interleaved rx/drop record streams.

A second section unit-tests the burst-draining traffic manager's edge
cases directly: immediate starts on an idle wire, virtual-ring refill
mid-burst, tail-drop parity with per-frame offers, and the lazy
buffer-return ordering.
"""

from __future__ import annotations

from repro.core.frontend import FlowValveFrontend
from repro.core.sched_tree import SchedulingParams
from repro.experiments.base import ScaledSetup, _scale_demand
from repro.experiments.policies import fair_policy, motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.host import FixedRateSender
from repro.net import FiveTuple, Link, PacketFactory, PacketSink
from repro.net.packet import DropReason
from repro.nic import BufferPool, NicConfig, NicPipeline, TrafficManager, TxRing
from repro.sim import Simulator


def _observe(sim, nic, sink, records):
    """Everything a run makes observable, in comparable form."""
    stats = nic.app.scheduler.stats
    return {
        "records": records,
        "submitted": nic.submitted,
        "forwarded": nic.forwarded,
        "dropped": nic.dropped,
        "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
        "delivered": sink.total_packets,
        "bytes_by_app": dict(sink.bytes),
        "frames_out": nic.traffic_manager.frames_out,
        "tx_tail_drops": nic.tx_ring.tail_drops,
        "buffer_exhaustion_drops": nic.buffers.exhaustion_drops,
        "sched_decisions": stats.decisions,
        "sched_forwarded": stats.forwarded,
        "sched_dropped": stats.dropped,
        "sched_updates_run": stats.updates_run,
        "sched_updates_skipped": stats.updates_skipped,
        "sched_borrowed": stats.forwarded_on_borrowed_tokens,
        "final_time": sim.now,
        "events": sim.events_executed,
    }


def _fig11_motivation(fast_path: bool, duration: float = 6.0) -> dict:
    """The golden-trace NIC workload (Fig. 11(a) motivation mix)."""
    setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    records = []
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)

    def receive(packet):
        records.append(f"rx:{packet.seq}")
        sink.receive(packet)

    def on_drop(packet):
        records.append(f"drop:{packet.seq}:{packet.drop_reason.value}")

    nic = NicPipeline.with_flowvalve(
        sim, setup.nic_config(fast_path=fast_path), frontend,
        receiver=receive, on_drop=on_drop,
    )
    factory = PacketFactory()
    for index, (app, demand) in enumerate(sorted(motivation_demands(setup.nominal_link_bps).items())):
        FixedRateSender(
            sim, app, factory, nic.submit,
            rate_bps=setup.sender_rate(), packet_size=1500,
            demand=_scale_demand(demand, setup.scale),
            vf_index=index, jitter=0.1, rng=sim.random.stream(app),
        )
    sim.run(until=duration)
    return _observe(sim, nic, sink, records)


def _fig13_blast(fast_path: bool, size: int = 1518, window: float = 0.004) -> dict:
    """Fig. 13-style full-rate blast: four apps oversubscribing a
    40 Gbit fair policy at full modelled rates (no rate scaling), which
    keeps the Tx ring and the scheduler's RED drops under pressure."""
    sim = Simulator(seed=11)
    params = SchedulingParams(update_interval=0.0005, expire_after=0.005)
    frontend = FlowValveFrontend(fair_policy(40e9, 4), link_rate_bps=40e9, params=params)
    records = []
    sink = PacketSink(sim, rate_window=window, record_delays=False)

    def receive(packet):
        records.append(f"rx:{packet.seq}")
        sink.receive(packet)

    def on_drop(packet):
        records.append(f"drop:{packet.seq}:{packet.drop_reason.value}")

    config = NicConfig(fast_path=fast_path)
    nic = NicPipeline.with_flowvalve(
        sim, config, frontend, receiver=receive, on_drop=on_drop
    )
    factory = PacketFactory()
    per_app_rate = 1.6 * 40e9 / 4
    for i in range(4):
        FixedRateSender(
            sim, f"App{i}", factory, nic.submit, rate_bps=per_app_rate,
            packet_size=size, vf_index=i, jitter=0.05,
            rng=sim.random.stream(f"App{i}"),
        )
    sim.run(until=window)
    return _observe(sim, nic, sink, records)


class TestFastSlowEquivalence:
    def test_fig11_motivation_workload_bit_identical(self):
        fast = _fig11_motivation(fast_path=True)
        slow = _fig11_motivation(fast_path=False)
        # The fast path must actually engage (fewer kernel events) ...
        assert fast["events"] < slow["events"]
        # ... while every observable — including the full interleaved
        # rx/drop stream — matches exactly.
        del fast["events"], slow["events"]
        assert fast["records"] == slow["records"]
        assert fast == slow
        # Sanity: the workload exercised both drop paths and deliveries.
        assert fast["delivered"] > 0
        assert fast["dropped"] > 0

    def test_fig13_full_rate_blast_bit_identical(self):
        fast = _fig13_blast(fast_path=True)
        slow = _fig13_blast(fast_path=False)
        assert fast["events"] < slow["events"]
        del fast["events"], slow["events"]
        assert fast["records"] == slow["records"]
        assert fast == slow
        assert fast["delivered"] > 0
        assert fast["dropped"] > 0


# ----------------------------------------------------------------------
# Traffic-manager burst-drain edge cases
# ----------------------------------------------------------------------
def _mk_packets(n, size=1500, t=0.0):
    factory = PacketFactory()
    flow = FiveTuple("10.0.0.1", "10.0.1.1", 40000, 5001)
    return [factory.make(size, flow, t, app="A") for _ in range(n)]


def _fast_tm(sim, depth=4, rate_bps=1e9, on_sent_at=None, receiver=None):
    ring = TxRing(sim, depth=depth, virtual=True)
    link = Link(sim, rate_bps, propagation_delay=1e-6, receiver=receiver)
    tm = TrafficManager(sim, ring, link, on_sent_at=on_sent_at, fast=True)
    return tm, ring, link


class TestTrafficManagerFastPath:
    def test_idle_wire_immediate_start_never_occupies_ring(self):
        # Empty-ring re-arm: a frame offered to an idle wire starts
        # serialising immediately — in store mode it is handed straight
        # to the waiting drain process, so the virtual ring must stay
        # empty too.
        sim = Simulator()
        tm, ring, link = _fast_tm(sim)
        (packet,) = _mk_packets(1)
        assert tm.offer(packet) is True
        assert len(ring) == 0
        assert tm.frames_out == 1
        assert packet.tx_start == 0.0

    def test_virtual_ring_drains_as_time_advances(self):
        # Ring refilled mid-burst: depth 2 fills, matured starts free
        # slots for later offers at the same rate the drain process
        # would have popped them.
        sim = Simulator()
        tm, ring, link = _fast_tm(sim, depth=2)
        p = _mk_packets(5)
        ser = link.serialization_time(p[0])
        assert tm.offer(p[0]) is True  # starts now: not queued
        assert tm.offer(p[1]) is True  # starts at ser: queued
        assert tm.offer(p[2]) is True  # starts at 2*ser: queued
        assert len(ring) == 2
        assert tm.offer(p[3]) is False  # ring full
        assert p[3].drop_reason is DropReason.QUEUE_FULL
        assert ring.tail_drops == 1
        # Advance past the second frame's start: one slot matures.
        sim.schedule_at(1.5 * ser, lambda: None)
        sim.run(until=1.5 * ser)
        assert len(ring) == 1
        assert tm.offer(p[4]) is True
        # frames_out counts *started* serialisations, matching the
        # process-mode drain: p0 and p1 by 1.5*ser; p2 and p4 queued.
        assert tm.frames_out == 2
        sim.run(until=1.0)
        assert tm.frames_out == 4

    def test_offer_burst_matches_sequential_offers_exactly(self):
        # Two identical assemblies; one takes the burst entry point,
        # the other offers frame by frame. Accept/reject pattern, wire
        # timestamps, and delivery order must be identical.
        def run(burst: bool):
            sim = Simulator()
            delivered = []
            tm, ring, link = _fast_tm(
                sim, depth=2, receiver=lambda pkt: delivered.append((sim.now, pkt.seq))
            )
            packets = _mk_packets(5)
            if burst:
                rejected = tm.offer_burst(packets)
            else:
                rejected = [pkt for pkt in packets if not tm.offer(pkt)]
            sim.run(until=1.0)
            return {
                "rejected": [pkt.seq for pkt in rejected],
                "starts": [pkt.tx_start for pkt in packets if pkt not in rejected],
                "busy_until": link._busy_until,
                "frames_out": tm.frames_out,
                "tail_drops": ring.tail_drops,
                "delivered": delivered,
            }

        assert run(burst=True) == run(burst=False)

    def test_offer_burst_ring_refill_inside_one_burst(self):
        # A burst longer than the ring: per-frame capacity checks run
        # against the *evolving* virtual occupancy, so rejects appear
        # exactly where sequential offers would reject.
        sim = Simulator()
        tm, ring, link = _fast_tm(sim, depth=2)
        packets = _mk_packets(6)
        rejected = tm.offer_burst(packets)
        # Frame 0 starts immediately; 1 and 2 occupy the ring; 3+ drop.
        assert [pkt.seq for pkt in rejected] == [pkt.seq for pkt in packets[3:]]
        assert all(pkt.drop_reason is DropReason.QUEUE_FULL for pkt in rejected)
        # Only frame 0 has started at t=0; 1 and 2 wait in the ring.
        assert tm.frames_out == 1
        assert len(ring) == 2
        assert ring.tail_drops == 3
        sim.run(until=1.0)
        assert tm.frames_out == 3

    def test_on_sent_at_reports_monotonic_finish_times_in_order(self):
        # Buffer-return ordering: on_sent_at must fire in FIFO frame
        # order with back-to-back finish times — the same order and
        # times the process-mode drain's on_sent route observes.
        sim = Simulator()
        sent = []
        tm, ring, link = _fast_tm(sim, depth=8, on_sent_at=lambda pkt, t: sent.append((pkt.seq, t)))
        packets = _mk_packets(4)
        tm.offer_burst(packets)
        ser = link.serialization_time(packets[0])
        assert [seq for seq, _ in sent] == [pkt.seq for pkt in packets]
        finishes = [t for _, t in sent]
        assert finishes == sorted(finishes)
        assert finishes[0] == ser
        for prev, nxt in zip(finishes, finishes[1:]):
            assert nxt == prev + ser

    def test_lazy_buffer_return_matches_eventful_release_times(self):
        # release_at(finish) folds in at observation: the pool's free
        # count as a function of (observed) time must match what
        # per-event release() would produce.
        sim = Simulator()
        pool = BufferPool(sim, count=4, recycle_delay=2e-6)
        for _ in range(4):
            assert pool.try_allocate() is True
        assert pool.free == 0
        pool.release_at(1e-6)   # effective at ~3e-6
        pool.release_at(5e-6)   # effective at ~7e-6
        # Observe strictly after each maturation (1e-6 + 2e-6 need not
        # equal 3e-6 to the last ulp).
        sim.run(until=4e-6)
        assert pool.free == 1
        sim.run(until=8e-6)
        assert pool.free == 2
        assert pool.outstanding == 2
        # A matured return is allocatable again.
        assert pool.try_allocate() is True
        assert pool.free == 1
