"""End-to-end tests of the observability subsystem.

Covers the metrics registry (instruments, probes, no-op mode, the
periodic sampler), trace emission threaded through the NIC pipeline and
scheduling tree, the JSONL exports, and — critically — that switching
observability on changes *nothing* about simulated behaviour.
"""

import json

import pytest

from repro.core import FlowValve, FlowValveFrontend
from repro.core.scheduling import Verdict
from repro.experiments.base import ScaledSetup, _scale_demand
from repro.host import FixedRateSender
from repro.net import FiveTuple, PacketFactory, PacketSink
from repro.nic import NicPipeline
from repro.sim import NullTracer, Simulator, Tracer
from repro.stats.metrics import (
    MetricsRegistry,
    MetricsSampler,
    NullMetricsRegistry,
    write_jsonl,
)


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("nic.drops")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("nic.drops") is counter
        assert registry.snapshot()["nic.drops"] == pytest.approx(3.5)

    def test_probe_evaluated_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.probe("live", lambda: state["value"])
        assert registry.snapshot()["live"] == 1
        state["value"] = 2
        assert registry.snapshot()["live"] == 2

    def test_names_sorted_union(self):
        registry = MetricsRegistry()
        registry.probe("b", lambda: 0)
        registry.counter("a")
        registry.probe("c", lambda: 0)
        assert registry.names() == ["a", "b", "c"]

    def test_null_registry_discards_everything(self):
        registry = NullMetricsRegistry()
        assert not registry.enabled
        registry.counter("x").inc(100)
        registry.probe("p", lambda: 1)
        assert registry.snapshot() == {}

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled
        assert not NullMetricsRegistry().enabled


class TestMetricsSampler:
    def test_periodic_rows(self):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("ticks")
        sim.schedule(0.25, counter.inc)
        sampler = MetricsSampler(sim, registry, interval=0.1)
        sim.run(until=0.55)
        times = [row["time"] for row in sampler.rows]
        assert times == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
        assert [row["ticks"] for row in sampler.rows] == [0, 0, 1, 1, 1]

    def test_null_registry_starts_no_process(self):
        sim = Simulator()
        sampler = MetricsSampler(sim, NullMetricsRegistry(), interval=0.1)
        sim.run(until=10.0)
        assert sim.events_executed == 0
        assert sampler.rows == []

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsSampler(Simulator(), MetricsRegistry(), interval=0.0)

    def test_to_jsonl(self, tmp_path):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.probe("now", lambda: sim.now)
        sampler = MetricsSampler(sim, registry, interval=1.0)
        sim.run(until=3.0)
        path = tmp_path / "metrics.jsonl"
        assert sampler.to_jsonl(str(path)) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[-1]["time"] == pytest.approx(3.0)

    def test_write_jsonl_helper(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(str(path), [{"a": 1}, {"b": 2}]) == 2
        assert [json.loads(l) for l in path.read_text().splitlines()] == [{"a": 1}, {"b": 2}]


POLICY = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10gbit ceil 10gbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2 borrow 1:20
fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1 borrow 1:10
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


def _run_nic(tracer=None, metrics=None, duration=5.0, fast_path=True):
    """The Fig. 11-style assembly at a tiny scale, observability optional.

    scale=500 shrinks the update epoch to 0.5 s of sim time, so token
    enforcement (and therefore scheduler drops) kicks in well inside a
    5 s run while keeping the packet count small.
    """
    from repro.tc.parser import parse_script

    setup = ScaledSetup(nominal_link_bps=10e9, scale=500.0, wire_bps=10e9, seed=7)
    sim = Simulator(seed=setup.seed, tracer=tracer, metrics=metrics)
    frontend = FlowValveFrontend(
        parse_script(POLICY), link_rate_bps=setup.link_bps, params=setup.sched_params()
    )
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    nic = NicPipeline.with_flowvalve(
        sim, setup.nic_config(fast_path=fast_path), frontend, receiver=sink.receive
    )
    factory = PacketFactory()
    demands = {"A": 9e9, "B": 9e9}
    for index, app in enumerate(sorted(demands)):
        FixedRateSender(
            sim, app, factory, nic.submit,
            rate_bps=setup.sender_rate(), packet_size=1500,
            demand=_scale_demand(lambda t, rate=demands[app]: rate, setup.scale),
            vf_index=index, jitter=0.1, rng=sim.random.stream(app),
        )
    sim.run(until=duration)
    return sim, nic, sink


class TestNicPipelineTracing:
    def test_trace_contains_core_event_kinds(self):
        tracer = Tracer()
        sim, nic, sink = _run_nic(tracer=tracer)
        kinds = {(r.source, r.kind) for r in tracer.records}
        assert ("core.sched", "rate_update") in kinds
        assert ("nic.worker", "verdict") in kinds
        assert ("nic.tm", "queue_depth") in kinds
        assert ("net.sink", "deliver") in kinds
        # Somebody dropped something in this oversubscribed run.
        assert ("nic.pipeline", "drop") in kinds
        drops = list(tracer.select(source="nic.pipeline", kind="drop"))
        assert all("reason" in r.data for r in drops)
        assert len(drops) == nic.dropped
        # Each delivery traced exactly once.
        assert len(list(tracer.select(kind="deliver"))) == sink.total_packets

    def test_rate_update_payload_schema(self):
        tracer = Tracer()
        _run_nic(tracer=tracer, duration=2.0)
        record = next(tracer.select(source="core.sched", kind="rate_update"))
        for key in ("classid", "theta", "gamma", "gamma_rate", "shadow_transfer",
                    "lendable_rate", "epoch"):
            assert key in record.data

    def test_borrow_events_consistent_with_stats(self):
        tracer = Tracer()
        sim, nic, _ = _run_nic(tracer=tracer)
        borrows = len(list(tracer.select(source="core.sched", kind="borrow")))
        assert borrows == nic.app.scheduler.stats.forwarded_on_borrowed_tokens

    def test_observability_off_is_behaviour_identical(self):
        """The acceptance contract: tracing on must change nothing."""
        _, nic_off, sink_off = _run_nic()  # default NullTracer
        tracer = Tracer()
        sim_on, nic_on, sink_on = _run_nic(tracer=tracer)
        assert tracer.records  # it really did trace
        assert nic_on.submitted == nic_off.submitted
        assert nic_on.forwarded == nic_off.forwarded
        assert nic_on.dropped == nic_off.dropped
        assert nic_on.drops_by_reason == nic_off.drops_by_reason
        assert sink_on.total_packets == sink_off.total_packets
        assert dict(sink_on.bytes) == dict(sink_off.bytes)

    def test_event_count_identical_with_tracer(self):
        # Trace emission must not schedule simulator events. Tracing
        # forces the multi-yield slow path (DESIGN.md §7), so pin both
        # runs to it — the comparison isolates the tracer's own cost.
        sim_off, _, _ = _run_nic(duration=1.0, fast_path=False)
        sim_on, _, _ = _run_nic(tracer=Tracer(), duration=1.0, fast_path=False)
        assert sim_on.events_executed == sim_off.events_executed

    def test_fast_path_results_identical_with_tracer(self):
        # The stronger property replacing event-count identity when the
        # fast path is allowed: observability may change *how many*
        # kernel events run (slow path), never *what happens*.
        sim_fast, nic_fast, sink_fast = _run_nic(duration=1.0)
        sim_slow, nic_slow, sink_slow = _run_nic(tracer=Tracer(), duration=1.0)
        assert sim_fast.events_executed < sim_slow.events_executed
        assert nic_fast.submitted == nic_slow.submitted
        assert nic_fast.forwarded == nic_slow.forwarded
        assert nic_fast.drops_by_reason == nic_slow.drops_by_reason
        assert sink_fast.total_packets == sink_slow.total_packets
        assert dict(sink_fast.bytes) == dict(sink_slow.bytes)

    def test_trace_limit_bounds_memory(self):
        tracer = Tracer(limit=100)
        _run_nic(tracer=tracer, duration=1.0)
        assert len(tracer) == 100

    def test_to_jsonl_export_parses(self, tmp_path):
        tracer = Tracer()
        _run_nic(tracer=tracer, duration=1.0)
        path = tmp_path / "trace.jsonl"
        count = tracer.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) > 0
        for line in lines:
            row = json.loads(line)
            assert {"time", "source", "kind", "data"} <= set(row)


class TestNicPipelineMetrics:
    def test_registry_probes_cover_the_pipeline(self):
        registry = MetricsRegistry()
        sim, nic, sink = _run_nic(metrics=registry)
        snap = registry.snapshot()
        assert snap["nic.submitted"] == nic.submitted
        assert snap["nic.forwarded"] == nic.forwarded
        assert snap["nic.dropped"] == nic.dropped
        assert snap["nic.tm.frames_out"] == nic.traffic_manager.frames_out
        assert snap["sink.total_packets"] == sink.total_packets
        assert snap["nic.reorder.max_parked"] == nic.reorder.max_parked
        # Drop counters tally the same totals as the pipeline's dict.
        for reason, count in nic.drops_by_reason.items():
            assert snap[f"nic.drops.{reason.value}"] == count
        # Per-class scheduling probes registered by the tree.
        assert snap["sched.1:10.theta_bps"] == pytest.approx(
            nic.app.scheduler.tree.node("1:10").theta
        )
        assert snap["sched.1:10.updates"] > 0

    def test_metrics_off_costs_no_events_or_state(self):
        sim, nic, _ = _run_nic(duration=1.0)
        assert isinstance(sim.metrics, NullMetricsRegistry)
        assert sim.metrics.snapshot() == {}
        assert nic._drop_counters is None


SW_POLICY = POLICY.replace("10gbit", "100mbit")


class TestSoftwareModeObservability:
    def test_attach_observability_emits_updates_drops_and_borrows(self):
        # Mirror the golden software workload's phases: both tenants on
        # (B's excess is red and dropped), then A idle (its unused grant
        # fills the shadow bucket, so B forwards on borrowed tokens).
        from repro.core.sched_tree import SchedulingParams

        valve = FlowValve.from_script(
            SW_POLICY,
            link_rate_bps=100e6,
            params=SchedulingParams(update_interval=0.01, expire_after=0.05),
        )
        tracer = Tracer()
        registry = MetricsRegistry()
        valve.attach_observability(tracer, registry)
        factory = PacketFactory()
        flow_a = FiveTuple("10.0.0.1", "10.0.1.1", 40000, 5001)
        flow_b = FiveTuple("10.0.0.2", "10.0.1.1", 40001, 5001)
        verdicts = {Verdict.FORWARD: 0, Verdict.DROP: 0}
        wire_bits = (1500 + 20) * 8
        step_a = wire_bits / 30e6   # A offers 30 Mbit
        step_b = wire_bits / 60e6   # B offers 60 Mbit vs a 33 Mbit share
        clock = {"A": 0.0, "B": 0.0}
        flows = {"A": flow_a, "B": flow_b}
        steps = {"A": step_a, "B": step_b}
        while True:
            app = min(clock, key=lambda a: (clock[a], a))
            t = clock[app]
            if t >= 1.0:
                break
            clock[app] = t + steps[app]
            if app == "A" and 0.3 <= t < 0.8:
                continue  # A idle: its grant transfers to the shadow
            packet = factory.make(1500, flows[app], t, app=app)
            verdict = valve.process(packet, t)
            if app == "B":
                verdicts[verdict] += 1
        kinds = {(r.source, r.kind) for r in tracer.records}
        assert ("core.sched", "rate_update") in kinds
        assert ("core.sched", "drop") in kinds
        assert ("core.sched", "borrow") in kinds
        assert verdicts[Verdict.DROP] > 0
        drops = list(tracer.select(source="core.sched", kind="drop"))
        assert len(drops) == valve.stats.dropped
        borrows = list(tracer.select(kind="borrow"))
        assert len(borrows) == valve.stats.forwarded_on_borrowed_tokens
        assert all(r.data["lender"] == "1:10" for r in borrows)
        snap = registry.snapshot()
        assert snap["sched.1:20.forwarded_packets"] > 0

    def test_detaching_with_null_tracer(self):
        valve = FlowValve.from_script(SW_POLICY, link_rate_bps=100e6)
        valve.attach_observability(Tracer())
        assert valve.scheduler.tracer is not None
        valve.attach_observability(NullTracer())
        assert valve.scheduler.tracer is None
        assert all(node.tracer is None for node in valve.tree.nodes)


class TestExperimentIntegration:
    def test_timeline_runner_dumps_raw_streams(self, tmp_path):
        from repro.tc.parser import parse_script
        from repro.topology import timeline

        trace_path = tmp_path / "fig.trace.jsonl"
        metrics_path = tmp_path / "fig.metrics.jsonl"
        setup = ScaledSetup(nominal_link_bps=10e9, scale=1000.0, wire_bps=10e9)
        result = timeline(
            parse_script(POLICY),
            {"A": lambda t: 9e9, "B": lambda t: 9e9},
            setup,
            duration=4.0,
            bin_seconds=1.0,
            trace_path=str(trace_path),
            metrics_path=str(metrics_path),
        )
        assert "trace=" in result.notes and "metrics=" in result.notes
        trace_rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        kinds = {(r["source"], r["kind"]) for r in trace_rows}
        assert ("core.sched", "rate_update") in kinds
        assert ("nic.tm", "queue_depth") in kinds
        metric_rows = [json.loads(l) for l in metrics_path.read_text().splitlines()]
        assert len(metric_rows) >= 4
        assert metric_rows[-1]["nic.submitted"] > 0

    def test_timeline_runner_default_has_no_observability(self):
        from repro.tc.parser import parse_script
        from repro.topology import timeline

        setup = ScaledSetup(nominal_link_bps=10e9, scale=2000.0, wire_bps=10e9)
        result = timeline(
            parse_script(POLICY), {"A": lambda t: 9e9}, setup,
            duration=2.0, bin_seconds=1.0,
        )
        assert "trace=" not in result.notes
