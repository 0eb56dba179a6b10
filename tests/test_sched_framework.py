"""Tests for the pluggable scheduler framework: step costs, rank
programs, the rank scheduler, adapters, the registry, the crossbar
runtime, and the ``sched_crossbar`` campaign spec."""

import pytest

from repro.errors import CampaignError, SchedulingError
from repro.experiments import crossbar
from repro.experiments.campaign import REGISTRY
from repro.experiments.policies import motivation_policy
from repro.net import FiveTuple, Link, PacketFactory
from repro.net.packet import DropReason
from repro.sched import (
    FifoProgram,
    PFabricProgram,
    RankProgram,
    RankScheduler,
    ScheduledPort,
    SrptProgram,
    StepCosts,
    WfqProgram,
    build_scheduler,
    scheduler_names,
)
from repro.sched.adapters import DPDK_QOS_COSTS, FLOWVALVE_COSTS
from repro.sim import Simulator
from repro.topology import ScaledSetup

FLOW = FiveTuple("10.0.0.1", "10.0.1.1", 1, 2)


@pytest.fixture
def factory():
    return PacketFactory()


def packet(factory, app="A", size=1500):
    return factory.make(size, FLOW, 0.0, app=app)


class TestStepCosts:
    def test_per_packet_sums_steps(self):
        costs = StepCosts(classify=10.0, rank=20.0, enqueue=30.0, dequeue=40.0)
        assert costs.per_packet == 100.0
        assert costs.seconds(1000.0) == pytest.approx(0.1)

    def test_negative_step_rejected(self):
        with pytest.raises(SchedulingError):
            StepCosts(rank=-1.0)

    def test_calibrated_budgets(self):
        # DPDK QoS carries its measured 1022 cycles/packet; FlowValve's
        # split totals the Algorithm 1 budget.
        assert DPDK_QOS_COSTS.per_packet == 1022.0
        assert FLOWVALVE_COSTS.per_packet == 940.0

    def test_flowvalve_budget_tracks_nic_calibration(self):
        # The crossbar's FlowValve step costs derive from the same
        # calibrated CycleCosts the NIC pipeline charges.
        from repro.nic.config import CycleCosts

        cal = CycleCosts()
        assert FLOWVALVE_COSTS.classify == cal.emc_hit
        assert FLOWVALVE_COSTS.rank == 2 * cal.sched_per_class + cal.meter
        assert FLOWVALVE_COSTS.enqueue == FLOWVALVE_COSTS.dequeue == cal.ring_op


class TestPrograms:
    def test_fifo_ranks_are_monotone(self, factory):
        program = FifoProgram()
        ranks = [program.rank(packet(factory), "A", 0.0) for _ in range(5)]
        assert ranks == sorted(ranks) and len(set(ranks)) == 5

    def test_srpt_ranks_by_remaining_size(self, factory):
        program = SrptProgram(flow_sizes={"A": 6000.0})
        first = program.rank(packet(factory, size=1500), "A", 0.0)
        second = program.rank(packet(factory, size=1500), "A", 0.0)
        assert first == 6000.0 and second == 4500.0  # shrinking remainder

    def test_srpt_las_fallback_grows_with_attained(self, factory):
        program = SrptProgram()
        first = program.rank(packet(factory, size=1500), "A", 0.0)
        second = program.rank(packet(factory, size=1500), "A", 0.0)
        other = program.rank(packet(factory, size=1500), "B", 0.0)
        assert first == 0.0 and second == 1500.0
        assert other == 0.0  # a fresh flow starts ahead

    def test_pfabric_is_srpt_rank(self):
        assert PFabricProgram.name == "pfabric"
        assert issubclass(PFabricProgram, SrptProgram)

    def test_wfq_finish_tags_respect_weights(self, factory):
        program = WfqProgram({"A": 2.0, "B": 1.0})
        rank_a = program.rank(packet(factory, app="A"), "A", 0.0)
        rank_b = program.rank(packet(factory, app="B"), "B", 0.0)
        assert rank_b == pytest.approx(2.0 * rank_a)  # half the weight

    def test_wfq_vtime_advances_on_dequeue(self, factory):
        program = WfqProgram()
        rank = program.rank(packet(factory), "A", 0.0)
        program.on_dequeue(packet(factory), rank, 0.0)
        assert program.vtime == rank
        # A newly active flow starts at the current virtual time, not 0.
        fresh = program.rank(packet(factory, app="B"), "B", 0.0)
        assert fresh > rank


class _FixedRank(RankProgram):
    """Test stub: rank taken from a per-app table."""

    name = "fixed"

    def __init__(self, table):
        self.table = table

    def rank(self, pkt, key, now):
        return self.table[key]


class TestRankScheduler:
    def test_unclassified_without_key_drops(self, factory):
        sched = RankScheduler(FifoProgram())
        pkt = factory.make(1500, FLOW, 0.0)  # no app, no default key
        assert not sched.enqueue(pkt, 0.0)
        assert pkt.drop_reason is DropReason.UNCLASSIFIED
        assert sched.stats.unclassified == 1 and sched.stats.dropped == 1

    def test_default_key_rescues_unmatched(self, factory):
        sched = RankScheduler(FifoProgram(), default_key="best-effort")
        assert sched.enqueue(factory.make(1500, FLOW, 0.0), 0.0)
        assert sched.backlog == 1

    def test_dequeues_in_program_order(self, factory):
        sched = RankScheduler(_FixedRank({"A": 3.0, "B": 1.0, "C": 2.0}))
        for app in ("A", "B", "C"):
            assert sched.enqueue(packet(factory, app=app), 0.0)
        order = [p.app for p in sched.drain(0.0)]
        assert order == ["B", "C", "A"]
        assert sched.stats.dequeued == 3

    def test_tail_drop_at_limit(self, factory):
        sched = RankScheduler(FifoProgram(), limit_packets=2)
        assert sched.enqueue(packet(factory), 0.0)
        assert sched.enqueue(packet(factory), 0.0)
        loser = packet(factory)
        assert not sched.enqueue(loser, 0.0)
        assert loser.drop_reason is DropReason.CLASS_QUEUE_FULL
        assert sched.stats.dropped == 1 and sched.stats.evicted == 0

    def test_evict_on_full_displaces_worst(self, factory):
        sched = RankScheduler(
            _FixedRank({"slow": 100.0, "fast": 1.0}),
            limit_packets=1,
            evict_on_full=True,
        )
        resident = packet(factory, app="slow")
        assert sched.enqueue(resident, 0.0)
        assert sched.enqueue(packet(factory, app="fast"), 0.0)  # evicts
        assert resident.dropped
        assert sched.stats.evicted == 1
        assert sched.dequeue(0.0).app == "fast"

    def test_evict_on_full_keeps_better_resident(self, factory):
        sched = RankScheduler(
            _FixedRank({"slow": 100.0, "fast": 1.0}),
            limit_packets=1,
            evict_on_full=True,
        )
        assert sched.enqueue(packet(factory, app="fast"), 0.0)
        loser = packet(factory, app="slow")
        assert not sched.enqueue(loser, 0.0)
        assert loser.dropped and sched.stats.evicted == 0
        assert sched.dequeue(0.0).app == "fast"

    def test_next_ready_time_and_describe(self, factory):
        sched = RankScheduler(FifoProgram())
        assert sched.next_ready_time(5.0) is None
        sched.enqueue(packet(factory), 5.0)
        assert sched.next_ready_time(5.0) == 5.0
        assert "fifo[pifo]" in sched.describe()


class TestAdapters:
    def test_flowvalve_adapter_forwards_and_counts(self, factory):
        sched = build_scheduler("flowvalve", motivation_policy(1e9), 1e9)
        assert sched.name == "flowvalve"
        # t > 0: Algorithm 1's first rate update must have a nonzero
        # interval behind it before leaf meters hold tokens.
        assert sched.enqueue(packet(factory, app="NC"), 0.1)
        assert sched.backlog == 1
        assert sched.dequeue(0.1).app == "NC"
        assert sched.stats.enqueued == 1 and sched.stats.dequeued == 1

    def test_flowvalve_adapter_unclassified(self, factory):
        sched = build_scheduler("flowvalve", motivation_policy(1e9), 1e9)
        assert not sched.enqueue(packet(factory, app="mystery"), 0.0)
        assert sched.stats.unclassified == 1

    def test_qdisc_adapter_delegates(self, factory):
        sched = build_scheduler("htb", motivation_policy(1e9), 1e9)
        assert sched.enqueue(packet(factory, app="KVS"), 0.0)
        assert sched.backlog == 1
        pkt = sched.dequeue(0.0)
        assert pkt is not None and pkt.app == "KVS"
        assert sched.stats.dequeued == 1

    def test_qdisc_adapter_counts_unclassified(self, factory):
        # HTB with "default 0" drops unmatched traffic (PRIO instead
        # routes it to the last band, per tc's priomap default).
        sched = build_scheduler("htb", motivation_policy(1e9), 1e9)
        assert not sched.enqueue(packet(factory, app="mystery"), 0.0)
        assert sched.stats.unclassified == 1 and sched.stats.dropped == 1


class TestRegistry:
    def test_registered_names(self):
        assert scheduler_names() == [
            "dpdk_qos", "fifo", "flowvalve", "htb",
            "pfabric", "prio", "srpt", "wfq",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulingError):
            build_scheduler("cake", motivation_policy(1e9), 1e9)

    @pytest.mark.parametrize("name", [
        "dpdk_qos", "fifo", "flowvalve", "htb", "pfabric", "prio", "srpt", "wfq",
    ])
    @pytest.mark.parametrize("backend", ["pifo", "eiffel"])
    def test_every_builder_schedules_traffic(self, name, backend, factory):
        sched = build_scheduler(
            name, motivation_policy(1e9), 1e9, backend=backend, queue_limit=64,
        )
        for app in ("NC", "WS", "KVS", "ML"):
            sched.enqueue(packet(factory, app=app), 0.1)
        out = sched.drain(0.1)
        assert len(out) == sched.stats.dequeued == sched.stats.enqueued
        assert len(out) >= 1

    def test_pfabric_evicts_on_full(self):
        sched = build_scheduler("pfabric", motivation_policy(1e9), 1e9)
        assert sched.evict_on_full

    def test_dpdk_qos_carries_measured_budget(self):
        sched = build_scheduler("dpdk_qos", motivation_policy(1e9), 1e9)
        assert sched.costs.per_packet == 1022.0


class TestScheduledPort:
    def test_transmits_all_and_paces_by_service_time(self, factory):
        sim = Simulator(seed=1)
        received = []
        # 650-cycle default budget at 650 Hz -> 1 s/packet, far slower
        # than the wire: the port must be compute-bound.
        link = Link(sim, 1e9, receiver=received.append)
        sched = RankScheduler(FifoProgram())
        port = ScheduledPort(sim, sched, link, freq_hz=650.0)
        assert port.service_time == pytest.approx(1.0)
        for _ in range(5):
            port.submit(packet(factory))
        sim.run(until=10.0)
        assert port.transmitted == 5 and len(received) == 5
        starts = sorted(p.tx_start for p in received)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 1.0 - 1e-9 for gap in gaps)

    def test_wakes_up_for_late_arrivals(self, factory):
        sim = Simulator(seed=1)
        received = []
        link = Link(sim, 1e9, receiver=received.append)
        port = ScheduledPort(sim, RankScheduler(FifoProgram()), link, freq_hz=1.2e9)
        sim.schedule_at(5.0, lambda: port.submit(packet(factory)))
        sim.run(until=6.0)
        assert port.transmitted == 1
        assert received[0].tx_start >= 5.0

    def test_drop_hook_fires(self, factory):
        sim = Simulator(seed=1)
        link = Link(sim, 1e9, receiver=lambda p: None)
        drops = []
        sched = RankScheduler(FifoProgram(), limit_packets=1)
        port = ScheduledPort(sim, sched, link, freq_hz=1.2e9, on_drop=drops.append)
        port.submit(packet(factory))
        port.submit(packet(factory))  # the drain loop hasn't run yet
        assert port.dropped == 1 and len(drops) == 1

    def test_rejects_bad_frequency(self, factory):
        sim = Simulator(seed=1)
        link = Link(sim, 1e9, receiver=lambda p: None)
        with pytest.raises(SchedulingError):
            ScheduledPort(sim, RankScheduler(FifoProgram()), link, freq_hz=0.0)


def _bins(*rates):
    """A 5 s-bin series of nominal rates."""
    return [(5.0 * (i + 1), rate) for i, rate in enumerate(rates)]


#: Crossbar port cells on the motivation workload at scale 1/1000 over
#: 20 s: NC alone for three bins, then all four apps contend.
PINNED_PORT_CELLS = {
    "htb": ("scale=1/1000, scheduler=htb, drops=16381/35852", {
        "KVS": _bins(0.0, 0.0, 0.0, 0.348e9),
        "ML": _bins(0.0, 0.0, 0.0, 0.1392e9),
        "NC": _bins(10.02e9, 10.0008e9, 10.0008e9, 2.784e9),
        "WS": _bins(0.0, 0.0, 0.0, 9.36e9),
    }),
    "wfq": ("scale=1/1000, scheduler=wfq[pifo], drops=8598/35852", {
        "KVS": _bins(0.0, 0.0, 0.0, 7.3824e9),
        "ML": _bins(0.0, 0.0, 0.0, 6.8448e9),
        "NC": _bins(14.0088e9, 14.0112e9, 14.0064e9, 0.8904e9),
        "WS": _bins(0.0, 0.0, 0.0, 7.0368e9),
    }),
}


class TestCrossbar:
    def test_spec_registered(self):
        spec = REGISTRY.get("sched_crossbar")
        assert "scheduler" in spec.grid

    def test_unknown_workload_rejected(self):
        with pytest.raises(CampaignError):
            crossbar.run(workload="adversarial")

    def test_rank_scheduler_cell_runs(self):
        result = crossbar.run(
            scheduler="fifo", workload="motivation",
            duration=2.0, bin_seconds=1.0,
        )
        assert set(result.series) == {"KVS", "ML", "NC", "WS"}
        assert "scheduler=fifo[pifo]" in result.notes

    @pytest.mark.parametrize("scheduler", sorted(PINNED_PORT_CELLS))
    def test_port_cell_pinned(self, scheduler):
        notes, series = PINNED_PORT_CELLS[scheduler]
        result = crossbar.run(
            ScaledSetup(scale=1000.0), scheduler=scheduler, workload="motivation",
            duration=20.0, bin_seconds=5.0,
        )
        assert result.notes == notes
        assert result.series == series

    def test_flowvalve_cell_uses_reference_path(self):
        result = crossbar.run(
            scheduler="flowvalve", workload="motivation",
            duration=2.0, bin_seconds=1.0,
        )
        assert set(result.series) == {"KVS", "ML", "NC", "WS"}
        # The reference path reports no crossbar scheduler notes.
        assert "scheduler=" not in result.notes
