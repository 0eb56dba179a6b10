"""Burst-vs-per-packet ingress equivalence: the bit-exactness contract.

``NicConfig.ingress_burst`` lets open-loop senders precompute trains of
emission instants and hand them to ``NicPipeline.submit_burst`` as one
run-lane entry (DESIGN.md §7). The contract mirrors the fast-path one
in ``test_nic_fastpath_equivalence.py``: not "statistically close" but
*bit-identical observable behaviour* — the same interleaved rx/drop
record stream, drop reasons, per-app byte counts, scheduler stats, and
jitter RNG draw order, with strictly fewer kernel events. Both sides
run with ``fast_path=True``; only the ingress mode differs.

A second section checks the lazy-sink fold (sink tallies under burst
ingress with direct sink delivery) and that ack-clocked TCP senders —
which deliberately ignore the burst pipe (see ``host/tcp.py``) — are
unaffected by the knob.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.frontend import FlowValveFrontend
from repro.core.sched_tree import SchedulingParams
from repro.experiments.base import ScaledSetup, _scale_demand
from repro.experiments.policies import fair_policy, motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.host import FixedRateSender, TcpApp, TcpParams, TcpRegistry, windows
from repro.net import PacketFactory, PacketSink
from repro.net.flow import FiveTuple
from repro.nic import NicConfig, NicPipeline
from repro.sim import Simulator


def _observe(sim, nic, sink, records, senders):
    stats = nic.app.scheduler.stats
    return {
        "records": records,
        "submitted": nic.submitted,
        "forwarded": nic.forwarded,
        "dropped": nic.dropped,
        "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
        "delivered": sink.total_packets,
        "bytes_by_app": dict(sink.bytes),
        "sent_by_sender": [s.sent_packets for s in senders],
        "frames_out": nic.traffic_manager.frames_out,
        "tx_tail_drops": nic.tx_ring.tail_drops,
        "buffer_exhaustion_drops": nic.buffers.exhaustion_drops,
        "sched_decisions": stats.decisions,
        "sched_forwarded": stats.forwarded,
        "sched_dropped": stats.dropped,
        "sched_updates_run": stats.updates_run,
        "sched_updates_skipped": stats.updates_skipped,
        "sched_borrowed": stats.forwarded_on_borrowed_tokens,
        # One extra draw per jitter stream: identical values here prove
        # the burst path consumed the RNG in the exact per-packet order
        # and count (otherwise the streams would be out of phase).
        "next_jitter_draw": {
            name: sim.random.stream(name).random() for name in sorted(
                s.name for s in senders
            )
        },
        "final_time": sim.now,
        "events": sim.events_executed,
    }


def _fig11_motivation(ingress_burst: int, duration: float = 6.0) -> dict:
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

    config = replace(setup.nic_config(), ingress_burst=ingress_burst)
    nic = NicPipeline.with_flowvalve(
        sim, config, frontend, receiver=receive, on_drop=on_drop,
    )
    factory = PacketFactory()
    senders = []
    for index, (app, demand) in enumerate(sorted(motivation_demands(setup.nominal_link_bps).items())):
        senders.append(FixedRateSender(
            sim, app, factory, nic.submit,
            rate_bps=setup.sender_rate(), packet_size=1500,
            demand=_scale_demand(demand, setup.scale),
            vf_index=index, jitter=0.1, rng=sim.random.stream(app),
        ))
    sim.run(until=duration)
    return _observe(sim, nic, sink, records, senders)


def _fig13_blast(ingress_burst: int, size: int = 1518, window: float = 0.004) -> dict:
    """Fig. 13-style full-rate blast: four apps oversubscribing a
    40 Gbit fair policy at full modelled rates, keeping the Tx ring and
    the scheduler's RED drops under pressure while trains are long."""
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

    config = NicConfig(ingress_burst=ingress_burst)
    nic = NicPipeline.with_flowvalve(
        sim, config, frontend, receiver=receive, on_drop=on_drop
    )
    factory = PacketFactory()
    senders = []
    per_app_rate = 1.6 * 40e9 / 4
    for i in range(4):
        senders.append(FixedRateSender(
            sim, f"App{i}", factory, nic.submit, rate_bps=per_app_rate,
            packet_size=size, vf_index=i, jitter=0.05,
            rng=sim.random.stream(f"App{i}"),
        ))
    sim.run(until=window)
    return _observe(sim, nic, sink, records, senders)


class TestBurstIngressEquivalence:
    def test_fig11_motivation_workload_bit_identical(self):
        burst = _fig11_motivation(ingress_burst=64)
        plain = _fig11_motivation(ingress_burst=0)
        # Trained ingress must actually engage (fewer kernel events) ...
        assert burst["events"] < plain["events"]
        # ... while every observable — including the full interleaved
        # rx/drop stream and the RNG phase — matches exactly.
        del burst["events"], plain["events"]
        assert burst["records"] == plain["records"]
        assert burst == plain
        # The per-arrival admission contract only holds trivially while
        # buffers never exhaust; guard the workload against drifting
        # into the documented NO_BUFFER record-time caveat.
        assert burst["drops_by_reason"]["no_buffer"] == 0
        assert burst["delivered"] > 0
        assert burst["dropped"] > 0

    def test_fig13_full_rate_blast_bit_identical(self):
        burst = _fig13_blast(ingress_burst=64)
        plain = _fig13_blast(ingress_burst=0)
        assert burst["events"] < plain["events"]
        del burst["events"], plain["events"]
        assert burst["records"] == plain["records"]
        assert burst == plain
        assert burst["drops_by_reason"]["no_buffer"] == 0
        assert burst["delivered"] > 0
        assert burst["dropped"] > 0

    def test_short_train_lengths_bit_identical(self):
        # A tiny cap forces many short trains and exercises the
        # train-boundary wake arithmetic; still bit-identical.
        small = _fig11_motivation(ingress_burst=2, duration=2.0)
        plain = _fig11_motivation(ingress_burst=0, duration=2.0)
        del small["events"], plain["events"]
        assert small == plain


class TestLazySinkUnderBurst:
    def _run(self, ingress_burst: int, duration: float = 4.0) -> dict:
        # Direct sink delivery (no record wrapper, no on_delivery): the
        # pipeline routes deliveries through the sink's lazy fold.
        setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=False)
        config = replace(setup.nic_config(), ingress_burst=ingress_burst)
        nic = NicPipeline.with_flowvalve(
            sim, config, frontend, receiver=sink.receive,
        )
        factory = PacketFactory()
        senders = []
        for index, (app, demand) in enumerate(sorted(motivation_demands(setup.nominal_link_bps).items())):
            senders.append(FixedRateSender(
                sim, app, factory, nic.submit,
                rate_bps=setup.sender_rate(), packet_size=1500,
                demand=_scale_demand(demand, setup.scale),
                vf_index=index, jitter=0.1, rng=sim.random.stream(app),
            ))
        final = sim.run(until=duration)
        return {
            "final": final,
            "delivered": sink.total_packets,
            "total_bytes": sink.total_bytes,
            "bytes_by_app": dict(sink.bytes),
            "packets_by_app": dict(sink.packets),
            "mean_rates": {
                app: sink.rates[app].mean_rate(1.0, duration)
                for app in sorted(sink.rates)
            },
            "sent": [s.sent_packets for s in senders],
            "forwarded": nic.forwarded,
            "dropped": nic.dropped,
            "events": sim.events_executed,
        }

    def test_folded_tallies_match_eventful_deliveries(self):
        burst = self._run(ingress_burst=64)
        plain = self._run(ingress_burst=0)
        assert burst["events"] < plain["events"]
        del burst["events"], plain["events"]
        assert burst == plain
        assert burst["delivered"] > 0


class TestJitterlessTrains:
    """Jitterless burst trains vs per-packet submission, bit for bit.

    With ``jitter=0.0`` there are no RNG draws to sequence, so a train
    is a plain ``t <- t + interval`` walk — the same float adds the
    per-packet loop performs one yield at a time. The instants, the
    train boundaries, and the resume time must be bit-identical, not
    approximately equal; only the kernel event count may differ.
    """

    def _run(self, ingress_burst: int, duration: float = 2.0) -> dict:
        setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=True)
        nic = NicPipeline.with_flowvalve(
            sim, replace(setup.nic_config(), ingress_burst=ingress_burst),
            frontend, receiver=sink.receive,
        )
        factory = PacketFactory()
        senders = []
        for index, (app, demand) in enumerate(
            sorted(motivation_demands(setup.nominal_link_bps).items())
        ):
            senders.append(FixedRateSender(
                sim, app, factory, nic.submit,
                rate_bps=setup.sender_rate(), packet_size=1500,
                demand=_scale_demand(demand, setup.scale),
                vf_index=index, jitter=0.0,
            ))
        final = sim.run(until=duration)
        return {
            "final": final,
            "submitted": nic.submitted,
            "forwarded": nic.forwarded,
            "dropped": nic.dropped,
            "delivered": sink.total_packets,
            "bytes_by_app": dict(sink.bytes),
            "delays": sink.delays,
            "sent": [s.sent_packets for s in senders],
            "events": sim.events_executed,
        }

    def test_jitterless_trains_bit_identical(self):
        burst = self._run(ingress_burst=64)
        plain = self._run(ingress_burst=0)
        assert burst["events"] < plain["events"]
        del burst["events"], plain["events"]
        assert burst == plain
        assert burst["delivered"] > 0


#: Set-up and instant grid (seconds) of the merged-train workload.
_TRAIN_SETUP = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
_G = 1e-3


def _merged_trains():
    """Four interleaving trains in submission order: ``(kind, app,
    vf_index, times, flows, sizes)``. Trace train WS repeats every
    fourth KVS instant and burst train ML every even one (exact float
    ties); NC ties WS's half-steps and ends mid-run, at ``20.5 * _G``."""
    kvs_times = [i * _G for i in range(1, 41)]
    ws_times = sorted(kvs_times[::4] + [(i + 0.5) * _G for i in range(1, 41, 3)])
    ml_times = [i * _G for i in range(2, 42, 2)]
    nc_times = [t for t in ((i + 0.5) * _G for i in range(1, 41, 2)) if t <= 20.5 * _G]

    def flows(vf, n, count):
        return [FiveTuple(f"10.{vf}.0.{k % count + 1}", "10.0.1.1", 40000 + k % count, 5001)
                for k in range(n)]

    return [
        ("trace", "KVS", 2, kvs_times, flows(2, len(kvs_times), 3),
         [200 + 31 * k for k in range(len(kvs_times))]),
        ("trace", "WS", 1, ws_times, flows(1, len(ws_times), 2),
         [1500 - 17 * k for k in range(len(ws_times))]),
        ("burst", "ML", 3, ml_times, flows(3, len(ml_times), 1),
         [1500] * len(ml_times)),
        ("burst", "NC", 0, nc_times, flows(0, len(nc_times), 1),
         [700] * len(nc_times)),
    ]


def _run_merged_trains(trains, *, fluid: bool, trained: bool, record=None) -> dict:
    """Run *trains* (``(kind, app, vf_index, times, flows, sizes)``
    tuples, as :func:`_merged_trains` returns): as trains handed to
    ``submit_trace``/``submit_burst`` (*trained*), or as one ``submit``
    per emission. A burst train's flows and sizes repeat one value.
    *record*, a list, collects every minted packet in mint order (a
    custom maker, so it takes the ``rec.make`` branch)."""
    setup = _TRAIN_SETUP
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    sink = PacketSink(sim, rate_window=1.0, record_delays=True)
    config = replace(setup.nic_config(), fluid=fluid)
    nic = NicPipeline.with_flowvalve(sim, config, frontend, receiver=sink.receive)
    assert (nic._fluid is not None) == fluid
    factory = PacketFactory()
    make = factory.make
    if record is not None:
        def make(size, flow, created_at, app="", vf_index=0, conn_id=-1):
            packet = factory.make(size, flow, created_at, app=app, vf_index=vf_index)
            record.append(packet)
            return packet

    def emit(size, flow, app, vf_index):
        nic.submit(make(size, flow, sim.now, app=app, vf_index=vf_index))

    for kind, app, vf, times, flows, sizes in trains:
        if not trained:
            for t, flow, size in zip(times, flows, sizes):
                sim.schedule_at(t, emit, size, flow, app, vf)
        elif kind == "trace":
            nic.submit_trace(make, times, flows, sizes, app, vf)
        else:
            nic.submit_burst(make, times, sizes[0], flows[0], app, vf)
    sim.run(until=0.2)
    observed = _observe(sim, nic, sink, [], [])
    observed["delays"] = sink.delays
    observed["created"] = factory.created
    cache = nic.app.labeler.cache
    observed["emc"] = (cache.hits, cache.misses, cache.evictions)
    return observed


class TestTrainOrder:
    """Trains merged into one ingress run each keep their own order.

    An arrival item carries only its train record: it reads its index
    from the train's ``seen`` cursor, so every train's items must run
    in index order however the run interleaves them. Two trace trains
    of different apps and two burst trains interleave and tie exactly
    on instants.
    """

    @pytest.mark.parametrize("fluid", [True, False], ids=["fluid", "no-fluid"])
    def test_each_arrival_mints_its_own_trains_next_packet(self, fluid):
        minted = []
        _run_merged_trains(_merged_trains(), fluid=fluid, trained=True, record=minted)
        latency = _TRAIN_SETUP.nic_config().rx_dma_latency
        expected = []
        for order, (_kind, app, _vf, times, flows, sizes) in enumerate(_merged_trains()):
            for i, (t, flow, size) in enumerate(zip(times, flows, sizes)):
                expected.append(((t + latency, order, i), (app, t, flow, size)))
        expected.sort()
        assert [(p.app, p.created_at, p.flow, p.size) for p in minted] == [
            item for _key, item in expected
        ]

    def test_outcome_matches_per_packet_submit(self):
        runs = [
            _run_merged_trains(_merged_trains(), fluid=fluid, trained=trained)
            for fluid in (True, False)
            for trained in (True, False)
        ]
        trained_fluid = runs[0]
        assert trained_fluid["events"] < runs[1]["events"]
        for run in runs:
            del run["events"]
        assert all(run == trained_fluid for run in runs[1:])
        assert trained_fluid["delivered"] > 0
        assert trained_fluid["sched_dropped"] > 0


#: The merged-train workload's apps, one per VF (as its senders are).
_TRAIN_APPS = ("NC", "WS", "KVS", "ML")


def _train_flow(vf: int, k: int) -> FiveTuple:
    return FiveTuple(f"10.{vf}.0.{k}", "10.0.1.1", 40000 + k, 5001)


#: Two KVS burst trains of one flow each. The second starts once the
#: first has made the class active, so the fluid lane absorbs its
#: first packet's EMC miss by the classify replay.
_BURST_MISS_TRAINS = [
    ("burst", "KVS", 2, [k * (_G / 2) for k in range(1, 11)],
     [_train_flow(2, 1)] * 10, [700] * 10),
    ("burst", "KVS", 2, [k * (_G / 2) for k in range(30, 40)],
     [_train_flow(2, 2)] * 10, [1500] * 10),
]


@st.composite
def _generated_trains(draw):
    """1-5 trains on a half-``_G`` instant grid, so that instants tie
    exactly within and across trains. A burst train has one flow and
    size; a trace train draws both per item, from a few flows per VF
    so that EMC misses and hits mix."""
    trains = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(("burst", "trace")))
        vf = draw(st.integers(min_value=0, max_value=3))
        ticks = draw(st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=40))
        times = [k * (_G / 2) for k in sorted(ticks)]
        flow = st.builds(_train_flow, st.just(vf), st.integers(min_value=1, max_value=4))
        size = st.sampled_from((64, 300, 700, 1500))
        n = len(times)
        if kind == "burst":
            flows, sizes = [draw(flow)] * n, [draw(size)] * n
        else:
            flows = draw(st.lists(flow, min_size=n, max_size=n))
            sizes = draw(st.lists(size, min_size=n, max_size=n))
        trains.append((kind, _TRAIN_APPS[vf], vf, times, flows, sizes))
    return trains


class TestGeneratedTrains:
    """Differential check over generated trains: trained ingress
    (``submit_burst``/``submit_trace``) against per-packet ``submit``,
    with the fluid lane on and off — every observable, delays
    included, must match; only the kernel-event count may differ."""

    @settings(max_examples=150, deadline=None)
    @given(trains=_generated_trains())
    @example(trains=_BURST_MISS_TRAINS)
    def test_trained_matches_per_packet_submit(self, trains):
        runs = {
            (fluid, trained): _run_merged_trains(trains, fluid=fluid, trained=trained)
            for fluid in (True, False)
            for trained in (True, False)
        }
        for run in runs.values():
            del run["events"]
        reference = runs[False, False]
        for variant, run in runs.items():
            assert run == reference, variant
        assert reference["created"] == sum(len(train[3]) for train in trains)


class TestFluidLaneEquivalence:
    """fluid=True vs fluid=False bit-identity on randomized workloads.

    The fluid fast-forward lane (DESIGN.md §7) absorbs quiescent-flow
    packets into an analytic micro-queue and replays the FlowValve fast
    handler's elided branch float-for-float at the same virtual
    timestamps. The contract is the same as burst-vs-per-packet above:
    every observable — forwards, drop reasons, per-app bytes, one-way
    delay samples, scheduler/borrow stats, RNG phase — is bit-identical
    with strictly fewer kernel events. The lane only engages with a
    lazy sink and no drop callback, so these runs deliver straight into
    the sink and read drop reasons off the pipeline counters.

    Workloads are randomized per seed: demand windows, sender rates,
    packet sizes, and jitter are drawn from a seeded generator so the
    sweep crosses quiescent stretches, update epochs, RED drops, and
    borrow traffic without hand-tuning each case.
    """

    def _run(self, seed: int, fluid: bool, duration: float = 3.0) -> dict:
        wl = random.Random(seed)
        setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=True)
        config = replace(setup.nic_config(), ingress_burst=64, fluid=fluid)
        nic = NicPipeline.with_flowvalve(
            sim, config, frontend, receiver=sink.receive,
        )
        assert (nic._fluid is not None) == fluid
        factory = PacketFactory()
        senders = []
        for index, (app, demand) in enumerate(
            sorted(motivation_demands(setup.nominal_link_bps).items())
        ):
            # Randomize the pressure point per sender: rate multiplier
            # pushes some classes into RED/borrow territory, jitter=0
            # on some senders exercises the vectorized train path under
            # the lane, and an extra demand window adds off/on edges.
            rate = setup.sender_rate() * wl.choice([0.6, 1.0, 1.7, 2.5])
            jitter = wl.choice([0.0, 0.05, 0.1])
            size = wl.choice([256, 1024, 1500])
            if wl.random() < 0.5:
                gap0 = round(wl.uniform(0.2, 0.8) * duration, 4)
                gap1 = round(wl.uniform(gap0, duration), 4)
                demand = windows(
                    (0.0, gap0, rate), (gap1, duration, rate)
                )
            else:
                demand = _scale_demand(demand, setup.scale)
            senders.append(FixedRateSender(
                sim, app, factory, nic.submit,
                rate_bps=rate, packet_size=size, demand=demand,
                vf_index=index, jitter=jitter,
                rng=sim.random.stream(app),
            ))
        final = sim.run(until=duration)
        stats = nic.app.scheduler.stats
        return {
            "final": final,
            "submitted": nic.submitted,
            "forwarded": nic.forwarded,
            "dropped": nic.dropped,
            "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
            "delivered": sink.total_packets,
            "bytes_by_app": dict(sink.bytes),
            "delays": sink.delays,
            "delays_by_app": {a: list(v) for a, v in sink.delays_by_app.items()},
            "sent_by_sender": [s.sent_packets for s in senders],
            "frames_out": nic.traffic_manager.frames_out,
            "tx_tail_drops": nic.tx_ring.tail_drops,
            "buffer_exhaustion_drops": nic.buffers.exhaustion_drops,
            "link_bytes": nic.link.bytes_sent,
            "link_busy_until": nic.link._busy_until,
            "sched_decisions": stats.decisions,
            "sched_forwarded": stats.forwarded,
            "sched_dropped": stats.dropped,
            "sched_own": stats.forwarded_on_own_tokens,
            "sched_borrowed": stats.forwarded_on_borrowed_tokens,
            "borrow_matrix": sorted(stats.borrow_matrix.items()),
            "sched_updates_run": stats.updates_run,
            "sched_updates_skipped": stats.updates_skipped,
            "emc_hits": nic.app.labeler.cache.hits,
            "emc_misses": nic.app.labeler.cache.misses,
            "next_jitter_draw": {
                s.name: sim.random.stream(s.name).random() for s in senders
            },
            "events": sim.events_executed,
        }

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_randomized_workloads_bit_identical(self, seed):
        on = self._run(seed, fluid=True)
        off = self._run(seed, fluid=False)
        # The lane must actually absorb work (fewer kernel events) ...
        assert on["events"] < off["events"]
        del on["events"], off["events"]
        # ... while every observable matches exactly, float for float.
        assert on == off
        assert on["delivered"] > 0

    def test_sweep_covers_drops_and_borrowing(self):
        # The per-seed assertion is vacuous for a pressure dimension no
        # seed reaches; check the randomized sweep as a whole exercises
        # RED drops and inter-class borrowing under the fluid lane.
        runs = [self._run(seed, fluid=True) for seed in (1, 2, 3, 4, 5)]
        assert any(r["drops_by_reason"].get("sched_red", 0) > 0 for r in runs)
        assert any(r["sched_borrowed"] > 0 for r in runs)
        assert any(r["dropped"] > 0 for r in runs)


class TestTcpIgnoresBurstPipe:
    def _run(self, ingress_burst: int, duration: float = 0.5) -> dict:
        setup = ScaledSetup(scale=2000.0, seed=7)
        sim = Simulator(seed=setup.seed)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        registry = TcpRegistry(sim)
        sink = PacketSink(sim, rate_window=1.0, record_delays=False,
                          on_delivery=registry.handle_delivery)
        config = replace(setup.nic_config(), ingress_burst=ingress_burst)
        nic = NicPipeline.with_flowvalve(sim, config, frontend,
                                         receiver=sink.receive,
                                         on_drop=registry.handle_drop)
        factory = PacketFactory()
        apps = []
        demands = {
            "NC": windows((0, duration, 2e9 / setup.scale)),
            "WS": windows((0, duration, 1e12)),
        }
        for index, (app, demand) in enumerate(demands.items()):
            apps.append(TcpApp(
                sim, app, registry, factory, nic.submit, n_connections=2,
                demand=demand, tcp_params=TcpParams(base_rtt=100e-6 * setup.scale),
                vf_index=index,
            ))
        sim.run(until=duration)
        conns = [c for a in apps for c in a.connections]
        return {
            "events": sim.events_executed,
            "delivered": sink.total_packets,
            "bytes_by_app": dict(sink.bytes),
            "sent": [c.sent_packets for c in conns],
            "acked": [c.acked_packets for c in conns],
            "lost": [c.lost_packets for c in conns],
            "cwnd": [c.cwnd for c in conns],
            "srtt": [c.srtt for c in conns],
        }

    def test_ack_clocked_senders_unaffected_by_knob(self):
        # AimdConnection deliberately stays per-packet (its rationale
        # and measurements live in host/tcp.py): identical behaviour
        # *and* identical event counts either way.
        assert self._run(ingress_burst=64) == self._run(ingress_burst=0)
