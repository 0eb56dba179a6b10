"""Tests for the host model: CPU ledgers, AIMD TCP, traffic drivers."""

import pytest

from repro.host import (
    AimdConnection,
    FixedRateSender,
    HostCpu,
    TcpApp,
    TcpParams,
    TcpRegistry,
    windows,
)
from repro.net import FiveTuple, Link, PacketFactory, PacketSink
from repro.sim import Simulator


class TestWindows:
    def test_piecewise_demand(self):
        demand = windows((0, 10, 5e6), (10, 20, 1e6))
        assert demand(5) == 5e6
        assert demand(15) == 1e6
        assert demand(25) == 0.0

    def test_boundaries_half_open(self):
        demand = windows((0, 10, 5e6))
        assert demand(0) == 5e6
        assert demand(10) == 0.0


class TestHostCpu:
    def test_core_utilization(self):
        sim = Simulator()
        cpu = HostCpu(sim, n_cores=2)
        sim.schedule(10.0, lambda: None)
        sim.run()
        cpu.core(0).charge("app:x", 5.0)
        assert cpu.core(0).utilization() == pytest.approx(0.5)
        assert cpu.saturated() == []

    def test_seconds(self):
        cpu = HostCpu(Simulator(), freq_hz=2e9)
        assert cpu.seconds(2e9) == pytest.approx(1.0)

    def test_out_of_range_core(self):
        cpu = HostCpu(Simulator(), n_cores=2)
        with pytest.raises(IndexError):
            cpu.core(5)


class TestFixedRateSender:
    def test_sends_at_configured_rate(self):
        sim = Simulator(seed=1)
        sent = []
        FixedRateSender(sim, "A", PacketFactory(), lambda p: sent.append(p) or True,
                        rate_bps=1e6, packet_size=1250)
        sim.run(until=1.0)
        # 1e6 bps / 10000 bits = 100 pps.
        assert len(sent) == pytest.approx(100, abs=2)

    def test_demand_gates_sending(self):
        sim = Simulator(seed=1)
        sent = []
        FixedRateSender(sim, "A", PacketFactory(), lambda p: sent.append(p) or True,
                        rate_bps=1e6, packet_size=1250,
                        demand=windows((0.5, 1.0, 1e6)))
        sim.run(until=1.0)
        times = [p.created_at for p in sent]
        assert min(times) >= 0.5
        assert len(sent) == pytest.approx(50, abs=3)

    def test_demand_caps_rate(self):
        sim = Simulator(seed=1)
        sent = []
        FixedRateSender(sim, "A", PacketFactory(), lambda p: sent.append(p) or True,
                        rate_bps=2e6, packet_size=1250,
                        demand=windows((0, 1.0, 0.5e6)))
        sim.run(until=1.0)
        assert len(sent) == pytest.approx(50, abs=3)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            FixedRateSender(Simulator(), "A", PacketFactory(), lambda p: True, rate_bps=0)

    def test_rejects_zero_packet_size(self):
        # A zero-byte frame has a zero emission interval: simulated time
        # would never advance past the first send.
        with pytest.raises(ValueError, match="packet size"):
            FixedRateSender(Simulator(), "A", PacketFactory(), lambda p: True,
                            rate_bps=1e6, packet_size=0)

    def test_first_packet_lands_exactly_on_window_open(self):
        # Idle regression: a closed demand used to be polled on a
        # 10x-interval grid, so the first packet after a 0 -> rate
        # transition could land up to 10 intervals late (and off the
        # jitter-free emission grid). With windows() exposing its
        # boundaries the sender sleeps exactly until the window opens.
        sim = Simulator(seed=1)
        sent = []
        FixedRateSender(sim, "A", PacketFactory(), lambda p: sent.append(p) or True,
                        rate_bps=1e6, packet_size=1250,
                        demand=windows((15.0, 16.0, 1e6)))
        sim.run(until=16.0)
        assert sent[0].created_at == 15.0

    def test_sender_retires_when_demand_never_reopens(self):
        # After the last window closes there is no boundary to sleep
        # until: the sender process ends instead of polling forever.
        sim = Simulator(seed=1)
        sent = []
        FixedRateSender(sim, "A", PacketFactory(), lambda p: sent.append(p) or True,
                        rate_bps=1e6, packet_size=1250,
                        demand=windows((0.0, 0.5, 1e6)))
        final = sim.run()
        n = len(sent)
        assert n == pytest.approx(50, abs=3)
        # An open-ended run drains: no idle poll events trail the close.
        assert final < 0.6

    def test_windows_next_change_reports_boundaries(self):
        demand = windows((0, 10, 5e6), (10, 20, 1e6))
        assert demand.next_change(0.0) == 10.0
        assert demand.next_change(5.0) == 10.0
        assert demand.next_change(10.0) == 20.0
        assert demand.next_change(20.0) is None


class TestAimdTcp:
    """End-to-end: a connection against a finite link converges and
    respects the ack clock."""

    def _testbed(self, link_bps=10e6, rtt=0.01):
        sim = Simulator(seed=5)
        registry = TcpRegistry(sim)
        sink = PacketSink(sim, rate_window=0.5, on_delivery=registry.handle_delivery)
        link = Link(sim, link_bps, receiver=sink.receive)
        # Senders push straight onto the link; an overfull wire just
        # queues (we rely on cwnd to bound in-flight).
        return sim, registry, sink, link

    def test_fills_a_clean_link(self):
        sim, registry, sink, link = self._testbed()
        factory = PacketFactory()
        conn = AimdConnection(
            sim, registry.new_id(), FiveTuple("a", "b", 1, 2), "A",
            factory, lambda p: link.send(p) or True,
            params=TcpParams(base_rtt=0.01),
        )
        registry.register(conn)
        sim.run(until=5.0)
        achieved = sink.rates["A"].mean_rate(3, 5)
        assert achieved > 0.7 * 10e6

    def test_in_flight_never_exceeds_cwnd(self):
        sim, registry, sink, link = self._testbed()
        factory = PacketFactory()
        conn = AimdConnection(
            sim, registry.new_id(), FiveTuple("a", "b", 1, 2), "A",
            factory, lambda p: link.send(p) or True,
            params=TcpParams(base_rtt=0.01),
        )
        registry.register(conn)
        violations = []

        def check():
            if conn.in_flight > conn.cwnd_segments + 1:
                violations.append((sim.now, conn.in_flight, conn.cwnd_segments))
            if sim.now < 3.0:
                sim.schedule(0.01, check)

        sim.schedule(0.1, check)
        sim.run(until=3.0)
        assert violations == []

    def test_loss_halves_window(self):
        # Exercise the congestion-control handler directly (the send
        # loop's idle-restart would otherwise reset the window).
        sim = Simulator(seed=5)
        registry = TcpRegistry(sim)
        factory = PacketFactory()
        conn = AimdConnection(
            sim, registry.new_id(), FiveTuple("a", "b", 1, 2), "A",
            factory, lambda p: True, params=TcpParams(base_rtt=0.01),
        )
        registry.register(conn)
        conn.cwnd = 100 * 1500
        conn.in_slow_start = False
        packet = factory.make(1500, conn.flow, 0.0, conn_id=conn.conn_id)
        conn.on_dropped(packet)
        assert conn.cwnd == pytest.approx(50 * 1500)
        assert not conn.in_slow_start

    def test_at_most_one_cut_per_rtt(self):
        sim = Simulator(seed=5)
        registry = TcpRegistry(sim)
        factory = PacketFactory()
        conn = AimdConnection(
            sim, registry.new_id(), FiveTuple("a", "b", 1, 2), "A",
            factory, lambda p: True, params=TcpParams(base_rtt=0.01),
        )
        conn.cwnd = 100 * 1500
        conn.in_slow_start = False
        conn.srtt = 0.1
        packet = factory.make(1500, conn.flow, 0.0, conn_id=conn.conn_id)
        # A burst of losses within one RTT → a single halving.
        for _ in range(4):
            conn.on_dropped(packet)
        assert conn.cwnd == pytest.approx(50 * 1500)
        assert conn.lost_packets == 4

    def test_registry_ignores_unknown_conn(self):
        sim = Simulator()
        registry = TcpRegistry(sim)
        packet = PacketFactory().make(64, FiveTuple("a", "b", 1, 2), 0.0, conn_id=999)
        registry.handle_delivery(packet)  # must not raise
        registry.handle_drop(packet)

    def test_tcp_app_splits_demand(self):
        sim = Simulator(seed=5)
        registry = TcpRegistry(sim)
        factory = PacketFactory()
        app = TcpApp(sim, "A", registry, factory, lambda p: True,
                     n_connections=4, demand=windows((0, 10, 8e6)),
                     tcp_params=TcpParams(base_rtt=0.01))
        assert len(app.connections) == 4
        assert len(registry) == 4
        # Each connection sees a quarter of the demand.
        assert app.connections[0].demand(1.0) == pytest.approx(2e6)
