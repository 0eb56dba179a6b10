"""Tests for network primitives: packets, five-tuples, links, sinks."""

import pytest

from repro.net import FiveTuple, Link, Packet, PacketFactory, PacketSink
from repro.net.packet import DropReason
from repro.sim import Simulator
from repro.units import wire_bits


class TestPacket:
    def test_factory_assigns_unique_sequences(self):
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        packets = [factory.make(64, flow, 0.0) for _ in range(5)]
        assert [p.seq for p in packets] == [0, 1, 2, 3, 4]
        assert factory.created == 5

    def test_leaf_class_empty_when_unlabelled(self):
        factory = PacketFactory()
        packet = factory.make(64, FiveTuple("a", "b", 1, 2), 0.0)
        assert packet.leaf_class == ""

    def test_one_way_delay_negative_until_delivered(self):
        factory = PacketFactory()
        packet = factory.make(64, FiveTuple("a", "b", 1, 2), 1.0)
        assert packet.one_way_delay == -1.0
        packet.delivered_at = 1.5
        assert packet.one_way_delay == pytest.approx(0.5)

    def test_mark_dropped(self):
        factory = PacketFactory()
        packet = factory.make(64, FiveTuple("a", "b", 1, 2), 0.0)
        packet.mark_dropped(DropReason.SCHED_RED)
        assert packet.dropped
        assert packet.drop_reason is DropReason.SCHED_RED


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20)
        assert ft.reversed() == FiveTuple("2.2.2.2", "1.1.1.1", 20, 10)

    def test_str_contains_protocol(self):
        assert "tcp" in str(FiveTuple("a", "b", 1, 2, 6))
        assert "udp" in str(FiveTuple("a", "b", 1, 2, 17))

    def test_hashable(self):
        ft = FiveTuple("a", "b", 1, 2)
        assert ft in {ft}


class TestLink:
    def test_serialization_time_includes_overhead(self):
        sim = Simulator()
        link = Link(sim, 10e9)
        factory = PacketFactory()
        packet = factory.make(64, FiveTuple("a", "b", 1, 2), 0.0)
        assert link.serialization_time(packet) == pytest.approx(wire_bits(64) / 10e9)

    def test_back_to_back_frames_queue_on_wire(self):
        sim = Simulator()
        received = []
        link = Link(sim, 1e6, receiver=received.append)
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        p1 = factory.make(1250, flow, 0.0)  # (1250+20)*8 = 10160 bits
        p2 = factory.make(1250, flow, 0.0)
        link.send(p1)
        link.send(p2)
        sim.run()
        assert received == [p1, p2]
        assert p2.delivered_at == pytest.approx(2 * 10160 / 1e6)

    def test_propagation_delay_added(self):
        sim = Simulator()
        link = Link(sim, 1e9, propagation_delay=0.5)
        factory = PacketFactory()
        packet = factory.make(100, FiveTuple("a", "b", 1, 2), 0.0)
        finish = link.send(packet)
        sim.run()
        assert packet.delivered_at == pytest.approx(finish + 0.5)

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, 1e9)
        factory = PacketFactory()
        for _ in range(3):
            link.send(factory.make(100, FiveTuple("a", "b", 1, 2), 0.0))
        assert link.frames_sent == 3
        assert link.bytes_sent == 300

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), 0.0)


class TestLinkUtilization:
    """Utilization window accounting under schedule-time counters.

    The counters are bumped when a frame is *accepted* (batched egress
    commits whole serialisation windows ahead of the clock), so a
    mid-run reading used to over-report: wire time that finishes after
    the observation instant was counted inside it, and a full second of
    committed backlog made ``utilization(0.5)`` read 2.0 clamped to 1.0
    rather than the true fraction.
    """

    def _link_with_frame(self, rate=1e6, size=1250):
        sim = Simulator()
        link = Link(sim, rate)
        packet = PacketFactory().make(size, FiveTuple("a", "b", 1, 2), 0.0)
        link.send(packet)  # wire busy until wire_bits(size)/rate
        return link, wire_bits(size) / rate

    def test_half_serialized_frame_counts_half(self):
        # Observe mid-frame: exactly the elapsed part of the committed
        # serialisation window is inside [0, elapsed], so the wire was
        # 100% busy for that window — not 200% clamped down.
        link, ser = self._link_with_frame()
        assert link.utilization(ser / 2) == pytest.approx(1.0)
        assert link.utilization(ser / 4) == pytest.approx(1.0)

    def test_committed_backlog_not_counted_before_it_serialises(self):
        sim = Simulator()
        link = Link(sim, 1e6)
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        ser = wire_bits(1250) / 1e6
        for _ in range(4):  # 4 back-to-back frames committed at t=0
            link.send(factory.make(1250, flow, 0.0))
        # Wire busy [0, 4*ser]; a window covering one frame's worth of
        # time is fully busy but no more than that.
        assert link.utilization(ser) == pytest.approx(1.0)
        # A window past the backlog sees the true fraction.
        assert link.utilization(8 * ser) == pytest.approx(0.5)

    def test_post_run_value_matches_historical_formula(self):
        link, ser = self._link_with_frame()
        elapsed = 10 * ser
        assert link.utilization(elapsed) == pytest.approx(ser / elapsed)

    def test_idle_window_after_busy_period(self):
        link, ser = self._link_with_frame()
        # Exactly at busy_until the overhang correction vanishes.
        assert link.utilization(ser) == pytest.approx(1.0)

    def test_zero_cases(self):
        sim = Simulator()
        link = Link(sim, 1e6)
        assert link.utilization(0.0) == 0.0
        assert link.utilization(1.0) == 0.0  # no frames sent


class TestPacketSinkLazyFold:
    """The lazy-delivery fold and its explicit ``until=`` bound."""

    def _lazy_world(self):
        sim = Simulator()
        sink = PacketSink(sim, rate_window=1.0, record_delays=True)
        link = Link(sim, 1e6, receiver=sink.receive)
        link.enable_lazy_delivery(sink)
        return sim, sink, link

    def test_mid_run_tallies_match_eventful_route(self):
        # Same deliveries through both routes, observed mid-run at a
        # time when some are matured and some are still pending.
        def run(lazy):
            sim = Simulator()
            sink = PacketSink(sim, rate_window=1.0, record_delays=True)
            link = Link(sim, 1e6, receiver=sink.receive)
            if lazy:
                link.enable_lazy_delivery(sink)
            factory = PacketFactory()
            flow = FiveTuple("a", "b", 1, 2)
            for i in range(6):
                sim.schedule_at(
                    i * 0.1, link.send, factory.make(1250, flow, i * 0.1, app="A")
                )
            sim.run(until=0.35)  # 4 sends committed, 2 still to come
            return (
                sink.total_packets,
                sink.total_bytes,
                dict(sink.bytes),
                list(sink.delays),
            )

        assert run(lazy=True) == run(lazy=False)

    def test_throughput_folds_to_explicit_bound(self):
        # The stale-clock case: deliveries committed to the wire inside
        # the window but past sim.now used to be silently excluded,
        # under-reporting the rate the eventful route would show.
        sim, sink, link = self._lazy_world()
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        ser = wire_bits(1250) / 1e6
        for _ in range(4):
            link.send(factory.make(1250, flow, 0.0, app="A"))
        # Clock still at 0, all four deliveries pending with times
        # ser..4*ser; a bound covering two of them folds exactly two.
        bound = 2 * ser + 1e-12
        assert sink.throughput_bps("A", bound) == pytest.approx(
            2 * 1250 * 8 / bound
        )
        assert sink.total_throughput_bps(bound) == pytest.approx(
            2 * 1250 * 8 / bound
        )
        # Widening the bound picks up the rest; tallies never regress.
        full = 4 * ser + 1e-12
        assert sink.throughput_bps("A", full) == pytest.approx(
            4 * 1250 * 8 / full
        )

    def test_fold_assigns_delivered_at_original_instants(self):
        sim, sink, link = self._lazy_world()
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        p1 = factory.make(1250, flow, 0.0, app="A")
        p2 = factory.make(1250, flow, 0.0, app="A")
        f1 = link.send(p1)
        f2 = link.send(p2)
        sim.run()  # drain hook ends the run at the last delivery
        assert sink.total_packets == 2
        assert p1.delivered_at == pytest.approx(f1)
        assert p2.delivered_at == pytest.approx(f2)
        assert sink.delays == [pytest.approx(f1), pytest.approx(f2)]


class TestPacketSink:
    def _deliver(self, sink, sim, app, size=100, at=1.0):
        factory = getattr(self, "_factory", None)
        if factory is None:
            factory = self._factory = PacketFactory()
        packet = factory.make(size, FiveTuple("a", "b", 1, 2), 0.0, app=app)
        sim.schedule_at(at, sink.receive, packet)

    def test_per_app_accounting(self):
        sim = Simulator()
        sink = PacketSink(sim)
        self._deliver(sink, sim, "A", size=100, at=1.0)
        self._deliver(sink, sim, "B", size=200, at=1.5)
        sim.run()
        assert sink.packets["A"] == 1
        assert sink.bytes["B"] == 200
        assert sink.total_packets == 2

    def test_delays_tracked_per_app(self):
        sim = Simulator()
        sink = PacketSink(sim)
        self._deliver(sink, sim, "A", at=1.0)
        self._deliver(sink, sim, "B", at=2.0)
        sim.run()
        assert len(sink.delays_by_app["A"]) == 1
        assert sink.delays_by_app["B"][0] == pytest.approx(2.0)

    def test_delay_recording_respects_start(self):
        sim = Simulator()
        sink = PacketSink(sim, delay_start=2.0)
        self._deliver(sink, sim, "A", at=1.0)
        self._deliver(sink, sim, "A", at=3.0)
        sim.run()
        assert len(sink.delays) == 1
        assert sink.delays[0] == pytest.approx(3.0)

    def test_delivery_callback(self):
        sim = Simulator()
        seen = []
        sink = PacketSink(sim, on_delivery=seen.append)
        self._deliver(sink, sim, "A", at=1.0)
        sim.run()
        assert len(seen) == 1

    def test_throughput_helpers(self):
        sim = Simulator()
        sink = PacketSink(sim)
        self._deliver(sink, sim, "A", size=1250, at=1.0)
        sim.run()
        assert sink.throughput_bps("A", 10.0) == pytest.approx(1000.0)
        assert sink.total_throughput_bps(10.0) == pytest.approx(1000.0)
