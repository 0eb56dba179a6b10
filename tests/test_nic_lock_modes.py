"""Tests for the update-locking disciplines of the NIC scheduling app
(paper Fig. 7). The ablation bench measures their throughput at scale;
these tests verify their *correctness* properties at small scale."""

import pytest

from repro.core import FlowValveFrontend
from repro.core.sched_tree import SchedulingParams
from repro.net import FiveTuple, PacketFactory, PacketSink
from repro.nic import NicConfig, NicPipeline
from repro.sim import Simulator

POLICY = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 40gbit ceil 40gbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1
fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


#: A offers 12 Gbit/s against its 5 Gbit/s share and B only 1.2 Gbit/s,
#: so A's red packets run the borrow walk over B's shadow bucket.
BORROW_POLICY = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10gbit ceil 10gbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1 borrow 1:20
fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


def run_mode(lock_mode, pps=2e6, duration=0.003, seed=4, policy=POLICY,
             pps_b=None, fast_path=True):
    sim = Simulator(seed=seed)
    frontend = FlowValveFrontend.from_script(
        policy, link_rate_bps=40e9,
        params=SchedulingParams(update_interval=0.0005, expire_after=0.005),
    )
    from dataclasses import replace

    cfg = replace(NicConfig(), lock_mode=lock_mode, fast_path=fast_path)
    sink = PacketSink(sim, rate_window=0.001, record_delays=False)
    nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
    factory = PacketFactory()
    rates = {"A": pps, "B": pps if pps_b is None else pps_b}
    for i, app in enumerate(("A", "B")):
        flow = FiveTuple(f"10.0.0.{i}", "10.0.1.1", 1, 2)

        def gen(app=app, flow=flow, gap=1.0 / rates[app]):
            while sim.now < duration:
                nic.submit(factory.make(1500, flow, sim.now, app=app, vf_index=0))
                yield gap

        sim.process(gen())
    sim.run(until=duration + 0.001)
    return sink, nic, frontend


ALL_MODES = ["trylock", "per_class_block", "global_block", "sequential"]


class TestLockModeCorrectness:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_accounting_conserved(self, mode):
        sink, nic, _ = run_mode(mode)
        assert sink.total_packets + nic.dropped + len(nic.dispatch) + len(nic.tx_ring) \
            + nic.reorder.in_flight >= nic.submitted - 64  # in-flight DMA slack

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_updates_run_under_every_discipline(self, mode):
        _, _, frontend = run_mode(mode)
        assert frontend.scheduler.stats.updates_run > 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_delivery_in_order(self, mode):
        sim = Simulator(seed=4)
        frontend = FlowValveFrontend.from_script(
            POLICY, link_rate_bps=40e9,
            params=SchedulingParams(update_interval=0.0005, expire_after=0.005),
        )
        from dataclasses import replace

        order = []
        sink = PacketSink(sim, record_delays=False,
                          on_delivery=lambda p: order.append(p.seq))
        cfg = replace(NicConfig(), lock_mode=mode)
        nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
        factory = PacketFactory()
        flow = FiveTuple("10.0.0.1", "10.0.1.1", 1, 2)

        def gen():
            while sim.now < 0.001:
                nic.submit(factory.make(1500, flow, sim.now, app="A"))
                yield 1e-6

        sim.process(gen())
        sim.run(until=0.002)
        assert order == sorted(order)
        assert order

    def test_trylock_never_waits(self):
        _, nic, _ = run_mode("trylock")
        assert nic.app.lock_contention == 0.0

    def test_serialised_modes_accumulate_waiting(self):
        _, nic, _ = run_mode("sequential", pps=5e6)
        assert nic.app.lock_contention > 0.0

    def test_sequential_not_faster_than_trylock(self):
        fast, _, _ = run_mode("trylock", pps=8e6)
        slow, _, _ = run_mode("sequential", pps=8e6)
        assert slow.total_packets <= fast.total_packets


class TestLockModePins:
    """Exact outcomes of every lock discipline on a borrowing policy,
    and of trylock's slow handler (``fast_path=False``): events
    executed, delivered, dropped, updates run/skipped, forwards on
    borrowed tokens and the lock wait (repr, so every float bit
    counts). Any change to the per-packet handlers' yield sequence or
    state transitions moves at least one of them."""

    @pytest.mark.parametrize("mode,fast_path,expected", [
        ("trylock", True, (6768, 2052, 1248, 18, 6588, 552, "0")),
        ("trylock", False, (34415, 2052, 1248, 18, 6588, 552, "0")),
        ("per_class_block", True,
         (31565, 2053, 1247, 18, 6587, 553, "1.0416666666560352e-06")),
        ("global_block", True,
         (24958, 2051, 1249, 17, 6588, 551, "0.00018488333332394166")),
        ("sequential", True,
         (24958, 2052, 1248, 18, 6588, 552, "0.00034884999998801495")),
    ])
    def test_outcome_pinned(self, mode, fast_path, expected):
        sink, nic, frontend = run_mode(
            mode, pps=1e6, pps_b=1e5, policy=BORROW_POLICY, fast_path=fast_path,
        )
        stats = frontend.scheduler.stats
        assert (
            nic.sim.events_executed, sink.total_packets, nic.dropped,
            stats.updates_run, stats.updates_skipped,
            stats.forwarded_on_borrowed_tokens, repr(nic.app.lock_contention),
        ) == expected
