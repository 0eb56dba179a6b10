"""Failure-injection tests: the system under starvation, overflow, and
degenerate configurations.

Production behaviour is defined as much by what happens when resources
run out as by the happy path: every scenario here drives a component
past a limit and asserts the *specified* degradation (counted drops,
preserved invariants) rather than crashes or silent corruption.
"""

import pytest

from repro.core import FlowValveFrontend
from repro.core.sched_tree import SchedulingParams
from repro.errors import ConfigError
from repro.net import FiveTuple, PacketFactory, PacketSink
from repro.net.packet import DropReason
from repro.nic import ForwardAllApp, NicConfig, NicPipeline
from repro.sim import Simulator

FAIR = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 40gbit ceil 40gbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
"""


def blast(sim, nic, pps, duration, size=256, app="A"):
    factory = PacketFactory()
    flow = FiveTuple("10.0.0.1", "10.0.1.1", 1, 2)

    def gen():
        while sim.now < duration:
            nic.submit(factory.make(size, flow, sim.now, app=app))
            yield 1.0 / pps

    sim.process(gen())


class TestBufferExhaustion:
    def test_tiny_buffer_pool_drops_at_ingress(self):
        sim = Simulator(seed=1)
        cfg = NicConfig(buffer_count=64, buffer_recycle_delay=50e-6)
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline(sim, cfg, ForwardAllApp(), receiver=sink.receive)
        blast(sim, nic, pps=5e6, duration=0.002)
        sim.run(until=0.003)
        assert nic.drops_by_reason[DropReason.NO_BUFFER] > 0
        # Conservation: every submitted packet is delivered or dropped.
        assert sink.total_packets + nic.dropped == nic.submitted

    def test_pool_recovers_after_burst(self):
        sim = Simulator(seed=1)
        cfg = NicConfig(buffer_count=64, buffer_recycle_delay=5e-6)
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline(sim, cfg, ForwardAllApp(), receiver=sink.receive)
        blast(sim, nic, pps=20e6, duration=0.0005)   # burst
        sim.run(until=0.002)
        before = sink.total_packets
        blast(sim, nic, pps=1e5, duration=0.0045)    # gentle follow-up
        sim.run(until=0.005)
        # The gentle phase flows without buffer drops.
        assert sink.total_packets > before
        assert nic.buffers.free > 0


class TestQueueOverflow:
    def test_dispatch_overflow_counted(self):
        sim = Simulator(seed=1)
        cfg = NicConfig(dispatch_depth=16, n_workers=1)
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline(sim, cfg, ForwardAllApp(), receiver=sink.receive)
        blast(sim, nic, pps=10e6, duration=0.001)
        sim.run(until=0.002)
        assert nic.drops_by_reason[DropReason.QUEUE_FULL] > 0
        assert sink.total_packets + nic.dropped == nic.submitted

    def test_single_worker_still_correct(self):
        """One micro-engine: slow, but ordering and accounting hold."""
        sim = Simulator(seed=1)
        cfg = NicConfig(n_workers=1)
        order = []
        sink = PacketSink(sim, record_delays=False,
                          on_delivery=lambda p: order.append(p.seq))
        nic = NicPipeline(sim, cfg, ForwardAllApp(), receiver=sink.receive)
        blast(sim, nic, pps=1e5, duration=0.002)
        sim.run(until=0.003)
        assert order == sorted(order)
        assert len(order) > 0


class TestSchedulerStarvation:
    def test_policy_smaller_than_offered_sheds_precisely(self):
        sim = Simulator(seed=1)
        frontend = FlowValveFrontend.from_script(
            FAIR.replace("40gbit", "1gbit"), link_rate_bps=1e9,
            params=SchedulingParams(update_interval=0.0005, expire_after=0.005),
        )
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline.with_flowvalve(sim, NicConfig(), frontend,
                                         receiver=sink.receive)
        blast(sim, nic, pps=2e6, duration=0.005, size=1250)
        # Measure a steady window inside the blast (skip the ramp).
        snap = {}
        sim.schedule_at(0.001, lambda: snap.update(bytes=sink.total_bytes))
        sim.run(until=0.004)
        achieved = (sink.total_bytes - snap["bytes"]) * 8 / 0.003
        assert achieved == pytest.approx(0.97e9, rel=0.12)
        assert nic.drops_by_reason[DropReason.SCHED_RED] > 0

    def test_zero_offered_load_is_quiescent(self):
        sim = Simulator(seed=1)
        frontend = FlowValveFrontend.from_script(
            FAIR, link_rate_bps=40e9,
            params=SchedulingParams(update_interval=0.0005, expire_after=0.005),
        )
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline.with_flowvalve(sim, NicConfig(), frontend,
                                         receiver=sink.receive)
        sim.run(until=0.01)
        assert nic.submitted == 0
        assert sink.total_packets == 0


class TestDegenerateConfigs:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            NicConfig(n_workers=0)

    def test_negative_line_rate_rejected(self):
        with pytest.raises(ConfigError):
            NicConfig(line_rate_bps=-1)

    def test_min_size_packets_survive_the_pipeline(self):
        sim = Simulator(seed=1)
        frontend = FlowValveFrontend.from_script(
            FAIR, link_rate_bps=40e9,
            params=SchedulingParams(update_interval=0.0005, expire_after=0.005),
        )
        sink = PacketSink(sim, record_delays=False)
        nic = NicPipeline.with_flowvalve(sim, NicConfig(), frontend,
                                         receiver=sink.receive)
        blast(sim, nic, pps=1e6, duration=0.001, size=64)
        sim.run(until=0.002)
        assert sink.total_packets > 0
