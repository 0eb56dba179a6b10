"""Tests for the SmartNIC model's components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferExhausted, ConfigError
from repro.net import FiveTuple, PacketFactory
from repro.net.packet import DropReason
from repro.nic import BufferPool, CycleCosts, NicConfig, ReorderBuffer, TxRing
from repro.sim import Simulator, Tracer


@pytest.fixture
def factory():
    return PacketFactory()


def make_packet(factory, seq_hint=0):
    return factory.make(64, FiveTuple("a", "b", 1, 2), 0.0)


class TestNicConfig:
    def test_defaults_valid(self):
        cfg = NicConfig()
        assert cfg.n_workers == 50
        assert cfg.freq_hz == 1.2e9

    def test_seconds_conversion(self):
        cfg = NicConfig(freq_hz=1e9)
        assert cfg.seconds(1000) == pytest.approx(1e-6)

    def test_worker_capacity(self):
        cfg = NicConfig(freq_hz=1.2e9, n_workers=50)
        assert cfg.worker_capacity_pps(3000) == pytest.approx(20e6)

    def test_scaled_preserves_ratios(self):
        cfg = NicConfig()
        scaled = cfg.scaled(100.0)
        assert scaled.freq_hz == pytest.approx(cfg.freq_hz / 100)
        assert scaled.line_rate_bps == pytest.approx(cfg.line_rate_bps / 100)
        assert scaled.rx_dma_latency == pytest.approx(cfg.rx_dma_latency * 100)
        # Depth × serialisation-time products are preserved.
        assert scaled.tx_ring_depth == max(16, cfg.tx_ring_depth // 100)

    def test_bad_lock_mode_rejected(self):
        with pytest.raises(ConfigError):
            NicConfig(lock_mode="optimistic")

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            NicConfig(costs=CycleCosts(meter=-1))

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            NicConfig().scaled(0.0)


class TestRings:
    def test_tx_ring_tail_drop(self, factory):
        sim = Simulator()
        ring = TxRing(sim, depth=2)
        assert ring.offer(make_packet(factory))
        assert ring.offer(make_packet(factory))
        overflow = make_packet(factory)
        assert not ring.offer(overflow)
        assert overflow.drop_reason is DropReason.QUEUE_FULL
        assert ring.tail_drops == 1

    def test_tx_ring_high_water_mark(self, factory):
        sim = Simulator()
        ring = TxRing(sim, depth=10)
        for _ in range(4):
            ring.offer(make_packet(factory))
        ring.try_get()
        assert ring.max_occupancy == 4
        assert len(ring) == 3


class TestReorderBuffer:
    def test_in_order_release(self, factory):
        released = []
        reorder = ReorderBuffer(released.append)
        t0, t1, t2 = (reorder.take_ticket() for _ in range(3))
        p0, p1, p2 = (make_packet(factory) for _ in range(3))
        reorder.complete(t2, p2)   # finishes first but must wait
        assert released == []
        reorder.complete(t0, p0)
        assert released == [p0]
        reorder.complete(t1, p1)
        assert released == [p0, p1, p2]

    def test_drop_frees_slot(self, factory):
        released = []
        reorder = ReorderBuffer(released.append)
        t0 = reorder.take_ticket()
        t1 = reorder.take_ticket()
        p1 = make_packet(factory)
        reorder.complete(t1, p1)
        reorder.complete(t0, None)  # dropped packet
        assert released == [p1]

    def test_double_complete_rejected(self, factory):
        reorder = ReorderBuffer(lambda p: None)
        ticket = reorder.take_ticket()
        reorder.complete(ticket, None)
        with pytest.raises(ValueError):
            reorder.complete(ticket, None)

    def test_in_flight_accounting(self):
        reorder = ReorderBuffer(lambda p: None)
        t0 = reorder.take_ticket()
        reorder.take_ticket()
        assert reorder.in_flight == 2
        reorder.complete(t0, None)
        assert reorder.in_flight == 1

    def test_drop_only_completions_advance_next_release(self, factory):
        # A run of pure drops (None completions) must advance the
        # release cursor so a later forward is emitted immediately.
        released = []
        reorder = ReorderBuffer(released.append)
        tickets = [reorder.take_ticket() for _ in range(4)]
        for ticket in tickets[:3]:
            reorder.complete(ticket, None)
        assert reorder._next_release == 3
        assert released == []
        p3 = make_packet(factory)
        reorder.complete(tickets[3], p3)
        assert released == [p3]
        assert reorder.in_flight == 0

    def test_out_of_order_drops_advance_through_parked_run(self, factory):
        # Parked drop-only completions are swept past in one go once
        # the head ticket arrives, advancing _next_release over the
        # whole run without emitting anything for the drops.
        released = []
        reorder = ReorderBuffer(released.append)
        t0, t1, t2, t3 = (reorder.take_ticket() for _ in range(4))
        reorder.complete(t1, None)
        reorder.complete(t2, None)
        p3 = make_packet(factory)
        reorder.complete(t3, p3)
        assert released == [] and reorder.parked == 3
        reorder.complete(t0, None)  # head drop releases the whole run
        assert released == [p3]
        assert reorder._next_release == 4
        assert reorder.parked == 0

    def test_double_complete_of_parked_ticket_rejected(self, factory):
        reorder = ReorderBuffer(lambda p: None)
        reorder.take_ticket()  # ticket 0 stays outstanding
        t1 = reorder.take_ticket()
        reorder.complete(t1, make_packet(factory))  # parks
        with pytest.raises(ValueError):
            reorder.complete(t1, None)

    def test_max_parked_high_water_mark(self, factory):
        released = []
        reorder = ReorderBuffer(released.append)
        tickets = [reorder.take_ticket() for _ in range(5)]
        packets = [make_packet(factory) for _ in range(5)]
        # Complete in reverse: 4, 3, 2, 1 park (watermark 4), then 0.
        for ticket, packet in list(zip(tickets, packets))[:0:-1]:
            reorder.complete(ticket, packet)
        assert reorder.parked == 4
        assert reorder.max_parked == 4
        reorder.complete(tickets[0], packets[0])
        assert released == packets
        assert reorder.parked == 0
        assert reorder.max_parked == 4  # watermark survives the drain

    def test_burst_release_only_when_a_run_may_unpark(self, factory):
        emitted, bursts = [], []
        reorder = ReorderBuffer(emitted.append, emit_burst=bursts.append)
        t0, t1, t2, t3 = (reorder.take_ticket() for _ in range(4))
        p0, p1, p2, p3 = (make_packet(factory) for _ in range(4))
        reorder.complete(t0, p0)  # nothing parked: a lone emit
        assert emitted == [p0] and bursts == []
        reorder.complete(t2, p2)
        reorder.complete(t1, p1)  # unparks t2 behind it
        assert bursts == [[p1, p2]]
        reorder.complete(t3, p3)
        assert emitted == [p0, p3]


class TestReorderRelease:
    """``release``: the completion bookkeeping of ``complete`` without
    the emission — the caller sends the returned run itself."""

    def _buffer(self):
        def never(*_):
            raise AssertionError("release() must not emit")

        return ReorderBuffer(never, emit_burst=never)

    def test_head_of_line_returns_itself(self, factory):
        reorder = self._buffer()
        t0 = reorder.take_ticket()
        p0 = make_packet(factory)
        assert reorder.release(t0, p0) == [p0]
        assert reorder.in_flight == 0

    def test_returns_the_in_order_run(self, factory):
        reorder = self._buffer()
        t0, t1, t2, t3 = (reorder.take_ticket() for _ in range(4))
        p0, p1, p2, p3 = (make_packet(factory) for _ in range(4))
        assert reorder.release(t2, p2) == []
        assert reorder.release(t1, p1) == []
        assert reorder.release(t0, p0) == [p0, p1, p2]
        assert reorder.release(t3, p3) == [p3]
        assert reorder.parked == 0 and reorder.in_flight == 0

    def test_parks_out_of_order_tickets(self, factory):
        reorder = self._buffer()
        tickets = [reorder.take_ticket() for _ in range(4)]
        for ticket in tickets[:0:-1]:
            assert reorder.release(ticket, make_packet(factory)) == []
        assert reorder.parked == 3
        assert reorder.max_parked == 3
        assert reorder.in_flight == 4

    def test_skips_dropped_slots(self, factory):
        reorder = self._buffer()
        t0, t1, t2, t3 = (reorder.take_ticket() for _ in range(4))
        p2 = make_packet(factory)
        reorder.release(t1, None)
        reorder.release(t2, p2)
        reorder.release(t3, None)
        assert reorder.release(t0, None) == [p2]  # head drop frees the run
        assert reorder.parked == 0 and reorder.in_flight == 0

    def test_stops_at_the_first_gap(self, factory):
        reorder = self._buffer()
        t0, t1, t2 = (reorder.take_ticket() for _ in range(3))
        p0, p2 = make_packet(factory), make_packet(factory)
        reorder.release(t2, p2)
        assert reorder.release(t0, p0) == [p0]  # t1 still outstanding
        assert reorder.parked == 1

    def test_double_completion_rejected(self, factory):
        reorder = self._buffer()
        t0, t1 = reorder.take_ticket(), reorder.take_ticket()
        reorder.release(t1, make_packet(factory))  # parked
        with pytest.raises(ValueError):
            reorder.release(t1, None)
        reorder.release(t0, None)  # released, with t1 behind it
        for ticket in (t0, t1):
            with pytest.raises(ValueError):
                reorder.release(ticket, None)

    def test_traces_park_and_release(self, factory):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        reorder = ReorderBuffer(lambda p: None, sim=sim)
        t0, t1 = reorder.take_ticket(), reorder.take_ticket()
        reorder.release(t1, make_packet(factory))
        reorder.release(t0, make_packet(factory))
        kinds = [(r.source, r.kind) for r in tracer.records]
        assert kinds == [("nic.reorder", "park"), ("nic.reorder", "release")]
        assert tracer.records[-1].data == {"next_release": 2, "parked": 0}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_release_matches_complete(self, data):
        """``release`` (with its lone head-of-line shortcut) and
        ``complete`` agree on every completion order and drop pattern:
        same packets in the same order, same ``in_flight``, ``parked``
        and ``max_parked`` after every step, and a repeated ticket is
        rejected on both."""
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        order = data.draw(st.permutations(range(n)), label="order")
        drops = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                          label="drops")
        factory = PacketFactory()
        packets = [None if drops[t] else make_packet(factory) for t in range(n)]
        released, emitted = [], []
        by_release = self._buffer()
        by_complete = ReorderBuffer(emitted.append, emit_burst=emitted.extend)
        for buffer in (by_release, by_complete):
            assert [buffer.take_ticket() for _ in range(n)] == list(range(n))

        def state(buffer):
            return buffer.in_flight, buffer.parked, buffer.max_parked

        def assert_repeat_rejected(ticket):
            with pytest.raises(ValueError):
                by_release.release(ticket, packets[ticket])
            with pytest.raises(ValueError):
                by_complete.complete(ticket, packets[ticket])

        for step, ticket in enumerate(order):
            released.extend(by_release.release(ticket, packets[ticket]))
            by_complete.complete(ticket, packets[ticket])
            assert released == emitted
            assert state(by_release) == state(by_complete)
            if data.draw(st.booleans(), label="repeat"):
                assert_repeat_rejected(
                    data.draw(st.sampled_from(order[: step + 1]), label="ticket")
                )
                assert state(by_release) == state(by_complete)
        assert released == [p for p in packets if p is not None]
        assert by_release.in_flight == by_release.parked == 0
        # Nothing parked: every ticket, the last head of line included,
        # is now behind the release cursor.
        for ticket in range(n):
            assert_repeat_rejected(ticket)


class TestBufferPool:
    def test_allocate_release_cycle(self):
        sim = Simulator()
        pool = BufferPool(sim, count=2, recycle_delay=0.0)
        assert pool.try_allocate()
        assert pool.try_allocate()
        assert not pool.try_allocate()
        assert pool.exhaustion_drops == 1
        pool.release()
        assert pool.free == 1

    def test_recycle_delay(self):
        sim = Simulator()
        pool = BufferPool(sim, count=1, recycle_delay=0.5)
        pool.try_allocate()
        pool.release()
        assert pool.free == 0  # still with the manager core
        sim.run()
        assert pool.free == 1

    def test_min_free_watermark(self):
        sim = Simulator()
        pool = BufferPool(sim, count=3, recycle_delay=0.0)
        pool.try_allocate()
        pool.try_allocate()
        assert pool.min_free == 1

    def test_double_release_rejected(self):
        sim = Simulator()
        pool = BufferPool(sim, count=1, recycle_delay=0.0)
        pool.try_allocate()
        pool.release()
        with pytest.raises(BufferExhausted):
            pool.release()
