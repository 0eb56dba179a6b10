"""Domain instantiation: turn a ``SimulationSpec`` into live worlds.

One *domain* = one :class:`~repro.sim.Simulator` carrying a NIC (or a
software-scheduler port), its senders, and its sink. The construction
order inside a domain replicates the classic runners **exactly**
(simulator → frontend → sink → pipeline → factory → senders →
sampler), because constructor-time event scheduling and RNG stream
creation participate in the deterministic event order — a single-domain
topology must produce today's event stream bit-for-bit (golden-trace
gated).

Cross-shard determinism comes from three per-domain derivations that
depend only on the domain *index*, never on the shard layout:

* seed: ``setup.seed`` for domain 0 (classic parity), then
  ``setup.seed + index * 1_000_003``;
* packet sequence bank: ``index << 40`` (disjoint, reorder-safe);
* RNG streams: per-app names on the domain's own seeded streams.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core import FlowValveFrontend
from ..host import FixedRateSender, propagate_next_change, windows
from ..net import PacketFactory, PacketSink
from ..net.boundary import BoundaryOutbox, RemoteIngress
from ..nic import NicConfig, NicPipeline
from ..sim import Simulator
from .result import DomainSummary
from .spec import AppSpec, DomainSpec, SimulationSpec

__all__ = ["BuiltDomain", "build_domains", "summarize_domain", "timeline"]

#: Disjoint per-domain packet-sequence banks: 2^40 packets per domain
#: before collision — far above any simulated volume.
SEQ_BANK = 1 << 40

#: Seed stride between domains (prime, so striding never aliases the
#: small seed space users pick from).
SEED_STRIDE = 1_000_003


def domain_seed(setup_seed: int, index: int) -> int:
    """Domain *index*'s simulator seed. Domain 0 keeps the setup seed
    unchanged — single-domain topologies must match the classic engine
    bit-for-bit."""
    return setup_seed if index == 0 else setup_seed + index * SEED_STRIDE


class BuiltDomain:
    """A live domain plus the engine's handles into it."""

    __slots__ = (
        "name", "index", "spec", "sim", "sink", "nic", "port", "submit",
        "outboxes", "ingress", "apps", "records", "drop_records",
        "senders", "tracer", "registry", "sampler",
    )

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.outboxes: List[BoundaryOutbox] = []
        self.nic = None
        self.port = None
        self.tracer = None
        self.registry = None
        self.sampler = None
        self.records = None
        self.drop_records = None


def _demand_of(app: AppSpec, scale: float):
    """Resolve an app's demand declaration into a scaled schedule."""
    demand = app.demand
    if demand is None:
        return None
    base = demand if callable(demand) else windows(*[tuple(span) for span in demand])
    return propagate_next_change(lambda t: base(t) / scale, base)


def build_domains(spec: SimulationSpec, indices: Iterable[int]) -> List[BuiltDomain]:
    """Instantiate the domains at *indices* (ascending)."""
    all_domains = spec.topology.domains()
    single = len(all_domains) == 1
    out: List[BuiltDomain] = []
    for index in sorted(indices):
        out.append(_build_one(spec, all_domains[index], single))
    return out


def _build_one(spec: SimulationSpec, dom: DomainSpec, single: bool) -> BuiltDomain:
    setup = spec.setup
    built = BuiltDomain(dom.name, dom.index)
    built.spec = dom

    tracer = registry = None
    if single and spec.trace_path:
        from ..sim import Tracer

        tracer = Tracer(limit=spec.trace_limit)
    if single and spec.metrics_path:
        from ..stats.metrics import MetricsRegistry

        registry = MetricsRegistry()
    built.tracer = tracer
    built.registry = registry

    sim = Simulator(seed=domain_seed(setup.seed, dom.index), tracer=tracer, metrics=registry)
    # Window barriers pause this simulator mid-horizon; deferred fluid
    # work may be carried across them up to the spec's end (must be set
    # before the pipeline constructs its fluid lane).
    sim.carry_horizon = spec.duration
    built.sim = sim
    params = dom.nic.params if dom.nic.params is not None else (
        spec.params if spec.params is not None else setup.sched_params()
    )

    if dom.nic.scheduler == "flowvalve":
        frontend = FlowValveFrontend(
            dom.nic.policy, link_rate_bps=setup.link_bps, params=params
        )
    else:
        frontend = None

    sink = PacketSink(sim, rate_window=1.0, record_delays=spec.record_delays)
    built.sink = sink

    receive = sink.receive
    on_drop = None
    if spec.collect_records:
        records: List[tuple] = []
        drop_records: List[tuple] = []
        built.records = records
        built.drop_records = drop_records

        def receive(packet, _sink=sink, _records=records, _sim=sim):
            _records.append((packet.app, packet.seq, repr(_sim._now)))
            _sink.receive(packet)

        def on_drop(packet, _records=drop_records, _sim=sim):
            reason = packet.drop_reason
            _records.append(
                (packet.app, packet.seq,
                 reason.value if reason is not None else "", repr(_sim._now))
            )

    local_receiver = None if dom.remote else receive

    # A remote domain's egress terminates in another shard: construct
    # the outbox up front (a plain record collector — no simulator or
    # RNG interaction, so construction order stays deterministic) and
    # hand it to the pipeline, which installs it as the wire's lazy
    # sink. Installing at construction (rather than after, as the port
    # branch still does) is what lets the fluid lane's guard see a lazy
    # egress and engage on boundary NICs (DESIGN.md §11).
    outbox = BoundaryOutbox(dom.name, dom.wire.dst) if dom.remote else None

    if frontend is not None:
        kwargs = {}
        if dom.wire is not None:
            kwargs["wire_propagation"] = dom.wire.propagation_delay * setup.scale
        nic = NicPipeline.with_flowvalve(
            sim,
            setup.nic_config(**dict(dom.nic.config)),
            frontend,
            receiver=local_receiver,
            on_drop=on_drop,
            boundary=outbox,
            **kwargs,
        )
        built.nic = nic
        built.submit = nic.submit
        egress_link = nic.link
    else:
        from ..net import Link
        from ..sched import ScheduledPort, build_scheduler

        link_kwargs = {}
        if dom.wire is not None:
            link_kwargs["propagation_delay"] = dom.wire.propagation_delay * setup.scale
        egress_link = Link(
            sim, setup.scaled_wire_bps, receiver=local_receiver, **link_kwargs
        )
        sched_kwargs = {"backend": dom.nic.backend, "params": params}
        if dom.nic.queue_limit is not None:
            sched_kwargs["queue_limit"] = dom.nic.queue_limit
        sched = build_scheduler(
            dom.nic.scheduler, dom.nic.policy, setup.link_bps, **sched_kwargs
        )
        port = ScheduledPort(
            sim, sched, egress_link, freq_hz=NicConfig().freq_hz / setup.scale
        )
        built.port = port
        built.submit = port.submit

    if outbox is not None:
        if built.nic is None:
            # Software ports know nothing of boundaries; install the
            # lazy route on their link directly.
            egress_link.enable_lazy_delivery(outbox)
        built.outboxes.append(outbox)

    factory = PacketFactory(start_seq=dom.index * SEQ_BANK)
    built.senders = []
    for vf_index, app in enumerate(dom.apps):
        built.senders.append(
            FixedRateSender(
                sim,
                app.name,
                factory,
                built.submit,
                rate_bps=(
                    setup.sender_rate()
                    if app.rate_bps is None
                    else app.rate_bps / setup.scale
                ),
                packet_size=(
                    app.packet_size if app.packet_size is not None else spec.packet_size
                ),
                demand=_demand_of(app, setup.scale),
                vf_index=vf_index,
                jitter=app.jitter,
                rng=sim.random.stream(app.name),
            )
        )

    if registry is not None:
        from ..stats.metrics import MetricsSampler

        interval = (
            spec.metrics_interval
            if spec.metrics_interval is not None
            else spec.bin_seconds
        )
        built.sampler = MetricsSampler(sim, registry, interval=interval)

    built.ingress = RemoteIngress(sim, sink, receive, pipeline=built.nic)
    built.apps = tuple(app.name for app in dom.apps)
    return built


# ----------------------------------------------------------------------
# post-run harvesting
# ----------------------------------------------------------------------
def summarize_domain(built: BuiltDomain, spec: SimulationSpec) -> DomainSummary:
    """Reduce a live domain to a picklable result record."""
    sink = built.sink
    scale = spec.setup.scale
    series = {}
    for app in built.apps:
        rates = sink.rates.get(app)
        points = []
        t = spec.bin_seconds
        while t <= spec.duration + 1e-9:
            rate = rates.mean_rate(t - spec.bin_seconds, t) if rates else 0.0
            points.append((t, rate * scale))
            t += spec.bin_seconds
        series[app] = points
    fluid_absorbed = fluid_spills = fluid_suspends = 0
    if built.nic is not None:
        submitted = built.nic.submitted
        dropped = built.nic.dropped
        drops_by_reason = {
            reason.value: count
            for reason, count in built.nic.drops_by_reason.items()
            if count
        }
        lane = built.nic._fluid
        if lane is not None:
            fluid_absorbed = lane.absorbed
            fluid_spills = lane.spills
            fluid_suspends = lane.suspends
    else:
        submitted = built.port.submitted
        dropped = built.port.dropped
        drops_by_reason = {}
    return DomainSummary(
        name=built.name,
        index=built.index,
        scheduler=built.spec.nic.scheduler,
        apps=built.apps,
        packets=dict(sink.packets),
        bytes=dict(sink.bytes),
        series=series,
        delivered=sink.total_packets,
        delivered_bytes=sink.total_bytes,
        submitted=submitted,
        dropped=dropped,
        drops_by_reason=drops_by_reason,
        events=built.sim.events_executed,
        records=built.records,
        drop_records=built.drop_records,
        fluid_absorbed=fluid_absorbed,
        fluid_spills=fluid_spills,
        fluid_suspends=fluid_suspends,
    )


def observability_notes(spec: SimulationSpec, domains: Sequence[BuiltDomain]) -> str:
    """Flush single-domain trace/metrics taps; returns note suffixes
    in the classic runners' format."""
    notes = ""
    for built in domains:
        if built.tracer is not None and spec.trace_path:
            count = built.tracer.to_jsonl(spec.trace_path)
            notes += f", trace={count} records -> {spec.trace_path}"
        if built.sampler is not None and spec.metrics_path:
            built.sampler.sample()  # final snapshot at t=duration
            count = built.sampler.to_jsonl(spec.metrics_path)
            notes += f", metrics={count} snapshots -> {spec.metrics_path}"
    return notes


# ----------------------------------------------------------------------
# the classic single-NIC adapter
# ----------------------------------------------------------------------
def timeline(
    policy,
    demands,
    setup,
    duration: float = 60.0,
    bin_seconds: float = 5.0,
    title: str = "FlowValve timeline",
    packet_size: int = 1500,
    params=None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    trace_limit: int = 0,
):
    """Run FlowValve on one simulated NIC against backlogged senders.

    ``demands`` give each app's *offered* load in nominal bit/s over
    time (0 = idle); senders blast at the scaled equivalent and the
    scheduler enforces the policy. ``trace_path``/``metrics_path`` dump
    the raw observability streams the figure was computed from (the
    structured event trace and one metrics snapshot per bin, as JSONL);
    without them the run pays no observability overhead.

    The Fig. 11 reproductions and the examples run through this thin
    adapter over :class:`~repro.topology.SimulationSpec`; it returns a
    :class:`~repro.experiments.base.TimelineResult`.
    """
    from .spec import SimulationSpec, Topology

    topo = Topology()
    topo.nic("nic0", policy=policy)
    topo.host("host0", nic="nic0")
    for app, demand in sorted(demands.items()):
        topo.app("host0", app, demand=demand)
    spec = SimulationSpec(
        topology=topo,
        setup=setup,
        duration=duration,
        bin_seconds=bin_seconds,
        title=title,
        packet_size=packet_size,
        params=params,
        trace_path=trace_path,
        metrics_path=metrics_path,
        trace_limit=trace_limit,
    )
    return spec.run().timeline()
