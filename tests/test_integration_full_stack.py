"""Full-stack integration tests crossing subsystem boundaries.

Each test exercises a path no unit test covers end to end: kernel tc
script → offload compiler → front end → NIC model → wire → sink, with
different host-side drivers.
"""

import pytest

from repro.core import FlowValveFrontend
from repro.core.offload import compile_offload
from repro.core.sched_tree import SchedulingParams
from repro.host import (
    FixedRateSender,
    TraceWorkload,
    WORKLOAD_PRESETS,
    windows,
)
from repro.net import PacketFactory, PacketSink
from repro.nic import NicConfig, NicPipeline
from repro.sim import Simulator
from repro.tc.parser import parse_script

CHAINED_TC = """
tc qdisc add dev eth0 root handle 1: prio bands 2
tc qdisc add dev eth0 parent 1:2 handle 2: htb
tc class add dev eth0 parent 2: classid 2:1 htb rate 35mbit ceil 35mbit
tc class add dev eth0 parent 2:1 classid 2:10 htb rate 25mbit weight 2
tc class add dev eth0 parent 2:1 classid 2:20 htb rate 10mbit weight 1
tc filter add dev eth0 parent 1: prio 1 match app=mgmt flowid 1:1
tc filter add dev eth0 parent 1: prio 1 match app=gold flowid 2:10
tc filter add dev eth0 parent 1: prio 1 match app=bronze flowid 2:20
"""


class TestChainedPolicyOnNic:
    """A real kernel-style chained configuration, compiled and executed
    on the simulated SmartNIC."""

    def _testbed(self, link=40e6):
        sim = Simulator(seed=6)
        compiled = compile_offload(parse_script(CHAINED_TC), link)
        frontend = FlowValveFrontend(
            compiled, link_rate_bps=link,
            params=SchedulingParams(update_interval=0.05, expire_after=0.5),
        )
        sink = PacketSink(sim, rate_window=0.5, record_delays=False)
        cfg = NicConfig(line_rate_bps=40e9).scaled(1000.0)
        from dataclasses import replace
        cfg = replace(cfg, tx_ring_depth=256, dispatch_depth=512, buffer_count=2048)
        nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
        return sim, sink, nic

    def test_band_priority_and_htb_weights_together(self):
        sim, sink, nic = self._testbed()
        factory = PacketFactory()
        for i, app in enumerate(("mgmt", "gold", "bronze")):
            FixedRateSender(sim, app, factory, nic.submit,
                            rate_bps=60e6, packet_size=1500, vf_index=i,
                            demand=windows((0, 20, 5e6 if app == "mgmt" else 60e6)),
                            jitter=0.1, rng=sim.random.stream(app))
        sim.run(until=20.0)
        mgmt = sink.rates["mgmt"].mean_rate(10, 20)
        gold = sink.rates["gold"].mean_rate(10, 20)
        bronze = sink.rates["bronze"].mean_rate(10, 20)
        # Band 0 (mgmt) fully served at its 5 Mbit demand.
        assert mgmt == pytest.approx(5e6, rel=0.1)
        # Inside the chained HTB: gold:bronze ≈ rates 25:10, capped by
        # the chained root's 35 Mbit ceiling.
        assert gold + bronze == pytest.approx(35e6 * 0.97, rel=0.12)
        assert gold > 1.8 * bronze


class TestWorkloadGeneratorThroughVfs:
    """Heavy-tailed tenants, each sending on its own VF index."""

    def test_vfs_isolate_and_account(self):
        sim = Simulator(seed=8)
        policy = parse_script("""
        fv qdisc add dev eth0 root handle 1: fv default 0
        fv class add dev eth0 parent 1: classid 1:1 fv rate 40mbit ceil 40mbit
        fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1 borrow 1:20
        fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1 borrow 1:10
        fv filter add dev eth0 parent 1: match vf=0 flowid 1:10
        fv filter add dev eth0 parent 1: match vf=1 flowid 1:20
        """)
        frontend = FlowValveFrontend(
            policy, link_rate_bps=40e6,
            params=SchedulingParams(update_interval=0.05, expire_after=0.5),
        )
        sink = PacketSink(sim, rate_window=0.5, record_delays=False)
        from dataclasses import replace
        cfg = replace(NicConfig(line_rate_bps=40e9).scaled(1000.0),
                      tx_ring_depth=256, dispatch_depth=512, buffer_count=2048)
        nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
        factory = PacketFactory()
        from dataclasses import replace as dc_replace
        profile = dc_replace(WORKLOAD_PRESETS["web"], flow_rate_limit_bps=10e6)
        tenants = [
            TraceWorkload(sim, f"tenant{i}", profile, offered_load_bps=40e6,
                          submit=nic.submit, factory=factory, vf_index=i,
                          duration=20.0)
            for i in range(2)
        ]
        sim.run(until=20.0)
        # Classification by VF index, not app string.
        t0 = sink.rates["tenant0"].mean_rate(10, 20)
        t1 = sink.rates["tenant1"].mean_rate(10, 20)
        # Both oversubscribe; the fair split holds to within the
        # burstiness of heavy-tailed arrivals.
        assert t0 == pytest.approx(t1, rel=0.35)
        assert t0 + t1 == pytest.approx(0.97 * 40e6, rel=0.15)
        for tenant in tenants:
            assert sink.packets[tenant.app] > 0
            assert tenant.flows_started > 10


class TestDeterminism:
    """The whole stack is reproducible: same seed, same byte counts."""

    def _run(self, seed):
        sim = Simulator(seed=seed)
        frontend = FlowValveFrontend(
            parse_script("""
            fv qdisc add dev eth0 root handle 1: fv default 0
            fv class add dev eth0 parent 1: classid 1:1 fv rate 40mbit ceil 40mbit
            fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1
            fv filter add dev eth0 parent 1: match app=A flowid 1:10
            """),
            link_rate_bps=40e6,
            params=SchedulingParams(update_interval=0.05, expire_after=0.5),
        )
        sink = PacketSink(sim, record_delays=False)
        from dataclasses import replace
        cfg = replace(NicConfig(line_rate_bps=40e9).scaled(1000.0),
                      tx_ring_depth=128, dispatch_depth=256, buffer_count=1024)
        nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
        FixedRateSender(sim, "A", PacketFactory(), nic.submit, rate_bps=60e6,
                        packet_size=1500, jitter=0.2, rng=sim.random.stream("A"))
        sim.run(until=5.0)
        return sink.total_packets, sink.total_bytes, nic.dropped

    def test_same_seed_same_world(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_different_world(self):
        assert self._run(1) != self._run(2)
