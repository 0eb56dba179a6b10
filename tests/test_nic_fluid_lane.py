"""Unit tests for the fluid fast-forward lane (``repro.nic.fluid``).

The lane's *equivalence* contract (bit-identity with fluid=off) is
pinned by ``test_burst_ingress_equivalence.py`` and the benchmark's
fluid-off count; these tests pin the lane's *mechanics*: the
construction guard that decides when it may engage at all, the
engaged/mixed mode split, spill-triggered suspension, the micro-queue
draining at the horizon, and the absorption statistics the bench and
docs quote.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.core.frontend import FlowValveFrontend
from repro.experiments import hotpath
from repro.experiments.base import ScaledSetup, _scale_demand
from repro.experiments.policies import motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.host import FixedRateSender
from repro.net import PacketFactory, PacketSink
from repro.net.boundary import BoundaryOutbox
from repro.net.flow import FiveTuple
from repro.nic import NicPipeline
from repro.nic.fluid import FluidLane
from repro.sim import Simulator


_FLOW = FiveTuple("10.0.0.1", "10.0.1.1", 10_000, 5001)


def _world(*, fluid=True, on_drop=None, receiver=None, boundary=None):
    setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    cfg = replace(setup.nic_config(), fluid=fluid)
    if boundary is not None:
        recv = None  # boundary and receiver are mutually exclusive
    else:
        recv = receiver if receiver is not None else sink.receive
    nic = NicPipeline.with_flowvalve(
        sim, cfg, frontend,
        receiver=recv,
        on_drop=on_drop,
        boundary=boundary,
    )
    factory = PacketFactory()
    for index, (app, demand) in enumerate(
        sorted(motivation_demands(setup.nominal_link_bps).items())
    ):
        FixedRateSender(
            sim, app, factory, nic.submit,
            rate_bps=setup.sender_rate(), packet_size=1500,
            demand=_scale_demand(demand, setup.scale),
            vf_index=index, jitter=0.1, rng=sim.random.stream(app),
        )
    return sim, nic, sink


class TestConstructionGuard:
    """The lane engages only when every bypassed channel is lazy/absent."""

    def test_engages_on_the_lazy_fast_path(self):
        _, nic, _ = _world()
        assert nic._fluid is not None

    def test_config_knob_disables(self):
        _, nic, _ = _world(fluid=False)
        assert nic._fluid is None

    def test_drop_callback_disables(self):
        drops = []
        _, nic, _ = _world(on_drop=drops.append)
        assert nic._fluid is None

    def test_eventful_receiver_disables(self):
        # A wrapper around the sink defeats lazy delivery, and with it
        # the lane (it replays Link.send at virtual timestamps, which
        # is only invisible when deliveries fold lazily).
        sink_box = []

        def receive(packet):
            sink_box.append(packet)

        _, nic, _ = _world(receiver=receive)
        assert nic.link._lazy_sink is None
        assert nic._fluid is None

    def test_fluid_off_still_runs_the_batched_fast_path(self):
        sim, nic, sink = _world(fluid=False)
        sim.run(until=0.2)
        assert nic.fast_path
        assert nic.submitted > 0
        assert sink.total_packets > 0


class TestBoundaryEmission:
    """Boundary egress (DESIGN.md §11): the lane engages when the wire
    terminates in a :class:`BoundaryOutbox` and appends wire records at
    the exact virtual serialisation-finish times the eventful path
    would have committed."""

    def test_boundary_sink_engages(self):
        outbox = BoundaryOutbox("nic0", "nic1")
        _, nic, _ = _world(boundary=outbox)
        assert nic.link._lazy_sink is outbox
        assert nic._fluid is not None

    def test_drop_callback_still_disables_with_boundary(self):
        drops = []
        outbox = BoundaryOutbox("nic0", "nic1")
        _, nic, _ = _world(boundary=outbox, on_drop=drops.append)
        assert nic.link._lazy_sink is outbox
        assert nic._fluid is None

    def test_emitted_records_bit_identical_to_fluid_off(self):
        # The emit half of the cross-boundary contract: the analytic
        # epilogue's (time, seq, ...) tuples must equal the batched
        # per-packet path's, field for field, float repr included.
        on_box = BoundaryOutbox("nic0", "nic1")
        sim_on, nic_on, _ = _world(boundary=on_box)
        sim_on.run(until=1.0)
        off_box = BoundaryOutbox("nic0", "nic1")
        sim_off, nic_off, _ = _world(fluid=False, boundary=off_box)
        sim_off.run(until=1.0)
        assert nic_on._fluid is not None and nic_off._fluid is None
        assert on_box.records, "boundary world must actually emit frames"
        assert on_box.records == off_box.records
        assert sim_on.events_executed < sim_off.events_executed

    def test_records_commit_in_wire_order(self):
        box = BoundaryOutbox("nic0", "nic1")
        sim, nic, _ = _world(boundary=box)
        sim.run(until=1.0)
        assert nic._fluid.absorbed > 0
        times = [record[0] for record in box.records]
        assert times == sorted(times)


class TestAbsorptionMechanics:
    def test_lane_absorbs_most_packets_on_the_hotpath_workload(self):
        sim, nic = hotpath.build()
        sim.run(until=2.0)
        lane = nic._fluid
        assert lane is not None
        # After warm-up (cold caches force real walks) the steady state
        # is almost fully absorbed; spills stay a tiny fraction.
        assert lane.absorbed > 0.9 * (lane.absorbed + lane.spills)
        # Mid-run a handful of submissions are still crossing the Rx
        # DMA latency; everything that arrived went through the lane.
        assert lane.absorbed + lane.spills <= nic.submitted
        assert lane.absorbed + lane.spills >= 0.99 * nic.submitted

    def test_spills_route_through_the_real_path_unharmed(self):
        sim, nic = hotpath.build()
        sim.run(until=2.0)
        lane = nic._fluid
        # Cold-start packets spill (first packet per flow misses the
        # EMC) yet everything is accounted for: no packet is lost
        # between the lane and the per-packet path.
        assert lane.spills > 0
        assert nic.forwarded > 0 and nic.dropped > 0
        assert nic.forwarded + nic.dropped <= nic.submitted

    def test_in_flight_drains_by_end_of_run(self):
        sim, nic = hotpath.build()
        sim.run(until=1.0)
        lane = nic._fluid
        # The end hook flushes every deferred micro-step at the horizon.
        assert lane.in_flight == 0
        assert not lane._micro

    def test_suspend_happens_and_is_rare(self):
        sim, nic = hotpath.build()
        sim.run(until=20.0)
        lane = nic._fluid
        # Engaged-mode spills force materialising the private micro
        # queue back into kernel events; the workload hits this path
        # but it must stay rare or the lane isn't paying for itself.
        assert lane.suspends > 0
        assert lane.suspends < 0.01 * lane.absorbed

    def test_event_budget_headline(self):
        # The tentpole number: well under one kernel event per packet.
        sim, nic = hotpath.build()
        sim.run(until=20.0)
        assert nic.submitted == hotpath.SEED_PACKETS
        assert sim.events_executed / nic.submitted < 0.15

    def test_fluid_off_reproduces_committed_event_count(self):
        sim, nic = hotpath.build(fluid=False)
        sim.run(until=20.0)
        assert nic._fluid is None
        assert sim.events_executed == 451_618
        assert nic.submitted == hotpath.SEED_PACKETS


class TestJobHandoff:
    """``FluidLane._job_handoff``: a fluid job finishing while a
    spilled packet waits in the dispatch queue hands that packet to a
    parked worker. Four always-on senders at 0.3× the backlogging rate
    on four workers queue spills behind busy workers often enough to
    reach it; the run must still match fluid off exactly."""

    @staticmethod
    def _run(seed, fluid):
        setup = replace(hotpath.DEFAULT_SETUP, scale=2000.0, seed=seed)
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=True)
        nic = NicPipeline.with_flowvalve(
            sim, setup.nic_config(n_workers=4, fluid=fluid), frontend,
            receiver=sink.receive,
        )
        factory = PacketFactory()
        for index, app in enumerate(sorted(motivation_demands(setup.nominal_link_bps))):
            FixedRateSender(
                sim, app, factory, nic.submit,
                rate_bps=0.3 * setup.sender_rate(), packet_size=1500,
                vf_index=index, jitter=0.1, rng=sim.random.stream(app),
            )
        sim.run(until=2.0)
        stats = nic.app.scheduler.stats
        return {
            "submitted": nic.submitted,
            "forwarded": nic.forwarded,
            "dropped": nic.dropped,
            "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
            "bytes_by_app": dict(sink.bytes),
            "delays": sink.delays,
            "link_busy_until": nic.link._busy_until,
            "tx_ring_max": nic.tx_ring.max_occupancy,
            "buffers_min_free": nic.buffers.min_free,
            "updates": (stats.updates_run, stats.updates_skipped),
        }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_handoff_runs_and_matches_fluid_off(self, monkeypatch, seed):
        handoffs = []
        job_handoff = FluidLane._job_handoff

        def counted(lane, dispatch):
            handoffs.append(dispatch)
            job_handoff(lane, dispatch)

        monkeypatch.setattr(FluidLane, "_job_handoff", counted)
        fluid_on = self._run(seed, fluid=True)
        assert handoffs
        assert fluid_on == self._run(seed, fluid=False)


class TestEmcKey:
    """The filters match on ``app``, so the EMC keys on it too: two
    apps sending on one flow and VF are classified apart, on the lane's
    label lookup and on the real path alike."""

    @staticmethod
    def _two_apps_one_flow(fluid):
        setup = hotpath.DEFAULT_SETUP
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=False)
        nic = NicPipeline.with_flowvalve(
            sim, setup.nic_config(fluid=fluid), frontend, receiver=sink.receive
        )
        factory = PacketFactory()
        for app in ("NC", "WS"):  # default vf_index and flow: shared
            FixedRateSender(
                sim, app, factory, nic.submit,
                rate_bps=setup.sender_rate(), packet_size=1500,
            )
        sim.run(until=0.5)
        tree = frontend.scheduler.tree
        return {
            "emc_entries": len(nic.app.labeler.cache),
            "classifier_lookups": frontend.classifier.lookups,
            "forwarded": {c: tree.node(c).forwarded_packets for c in ("1:10", "1:20")},
            "delivered": sink.packets,
            "dropped": nic.dropped,
        }

    def test_second_app_on_a_shared_flow_gets_its_own_class(self):
        on = self._two_apps_one_flow(fluid=True)
        assert on["emc_entries"] == 2
        assert on["classifier_lookups"] == 2
        assert on["forwarded"]["1:20"] > 0
        assert on["delivered"]["WS"] > 0
        assert on == self._two_apps_one_flow(fluid=False)


class TestIngressTrainMemory:
    """A train merged into the shared ingress run costs the kernel one
    cursor: the retained bytes do not grow with the train's length."""

    @staticmethod
    def _merged_bytes(n):
        _sim, nic, _sink = _world()
        assert nic._fluid is not None
        nic.ingress_run()
        times = [1e-3 + 1e-6 * i for i in range(n)]
        flows = [_FLOW] * n
        sizes = [1500] * n
        make = PacketFactory().make
        # A full collection empties CPython's tuple/float/list free
        # lists, so what the merge allocates does not depend on what
        # earlier tests left in them.
        gc.collect()
        tracemalloc.start()
        try:
            nic.submit_trace(make, times, flows, sizes, "NC", 0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(nic.ingress_run()) == n
        return retained

    def test_merge_retains_constant_bytes(self):
        # A first merge warms one-time caches and free lists. Both
        # lengths exceed the small-int cache, so the seq block's end is
        # an allocated int in each case.
        self._merged_bytes(1_000)
        small = self._merged_bytes(1_000)
        large = self._merged_bytes(10_000)
        assert large == small
        # One kernel tuple per item would cost about 130 bytes each.
        assert large < 2_048
