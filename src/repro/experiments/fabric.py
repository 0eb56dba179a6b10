"""E-FABRIC — multi-host fabric sweep over the sharded engine.

ROADMAP item 1 (scale-out). Builds a *ring fabric*: ``hosts``
identical domains, each a full calibrated NIC running the motivation
policy against the motivation demand timeline, every NIC's egress
wire pointing at the next domain's sink. The ring makes every domain
both a producer and a consumer of cross-shard traffic, so the
conservative-window barrier protocol (:mod:`repro.sim.shard`) is
exercised on every boundary every window.

``run(shards=N)`` partitions the ring over N worker processes. The
per-domain event streams are shard-layout-invariant by construction
(per-domain seeds/sequence banks), so the sweep measures *wall-clock*
scaling of a fixed deterministic workload — the honest speedup number
EXPERIMENTS.md reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim import shard
from ..stats.report import Table
from ..topology import ScaledSetup, SimulationSpec, Topology
from .policies import motivation_policy
from .workloads import motivation_demands

__all__ = [
    "FabricResult",
    "build_fabric",
    "run",
    "DEFAULT_PROP",
    "DEFAULT_SETUP",
]

#: Nominal inter-NIC propagation delay (seconds). 50 us is a
#: few-rack-hops datacenter RTT/2; scaled by the setup it becomes the
#: shard planner's lookahead.
DEFAULT_PROP = 5e-5

#: Fabric sweeps run deeper-scaled than the single-NIC figures: the
#: point is engine scaling, not per-figure fidelity, and 64 domains
#: at figure scale would be hours per run.
DEFAULT_SETUP = ScaledSetup(scale=2000.0)


@dataclass
class FabricResult:
    """Aggregate scaling numbers for one fabric run."""

    hosts: int
    shards: int
    workers: int
    windows: int
    duration: float
    wall_seconds: float
    total_packets: int
    total_events: int
    total_submitted: int
    total_dropped: int
    #: App name -> aggregate nominal achieved bit/s (all domains).
    app_rates: Dict[str, float] = field(default_factory=dict)
    degraded: bool = False
    #: Fluid fast-forward lane tallies summed over all domains
    #: (0 everywhere when the lane is off).
    fluid_absorbed: int = 0
    fluid_spills: int = 0
    fluid_suspends: int = 0
    #: Domain name -> kernel events executed by that domain's
    #: simulator, so a regression can be localized per domain.
    domain_events: Dict[str, int] = field(default_factory=dict)

    @property
    def pkt_per_sec(self) -> float:
        """Delivered packets per wall-clock second (the scaling metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_packets / self.wall_seconds

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_events / self.wall_seconds

    @property
    def events_per_packet(self) -> float:
        """Kernel events per delivered packet — deterministic for a
        fixed spec, the fabric counterpart of the single-NIC hot-path
        ratio the hot-path bench pins."""
        if self.total_packets <= 0:
            return 0.0
        return self.total_events / self.total_packets

    def perf(self, label: str):
        """This run as the :class:`~repro.stats.perf.HotpathResult`
        that ``BENCH_fabric.json`` records under *label*."""
        from ..stats.perf import HotpathResult

        safe_wall = self.wall_seconds if self.wall_seconds > 0 else float("inf")
        return HotpathResult(
            label=label,
            wall_seconds=self.wall_seconds,
            events=self.total_events,
            packets=self.total_packets,
            events_per_sec=self.total_events / safe_wall,
            packets_per_sec=self.total_packets / safe_wall,
            events_per_packet=self.events_per_packet,
        )

    def to_table(self) -> Table:
        table = Table(
            f"fabric — {self.hosts} hosts, {self.shards} shards",
            ["metric", "value"],
        )
        table.add_row("workers", self.workers)
        table.add_row("windows", self.windows)
        table.add_row("sim duration", f"{self.duration:.1f}s")
        table.add_row("wall clock", f"{self.wall_seconds:.2f}s")
        table.add_row("packets delivered", self.total_packets)
        table.add_row("events executed", self.total_events)
        table.add_row("events/packet", f"{self.events_per_packet:.4f}")
        table.add_row(
            "fluid absorbed/spilled/suspended",
            f"{self.fluid_absorbed}/{self.fluid_spills}/{self.fluid_suspends}",
        )
        table.add_row("drops", f"{self.total_dropped}/{self.total_submitted}")
        table.add_row("pkt/s (wall)", f"{self.pkt_per_sec:,.0f}")
        table.add_row("events/s (wall)", f"{self.events_per_sec:,.0f}")
        for app in sorted(self.app_rates):
            table.add_row(f"{app} aggregate", f"{self.app_rates[app] / 1e9:.2f}G")
        return table


def build_fabric(
    setup: ScaledSetup,
    *,
    hosts: int = 64,
    prop: float = DEFAULT_PROP,
) -> Topology:
    """A ring of *hosts* motivation-policy domains.

    Domain ``i``'s egress wire terminates at domain ``(i+1) % hosts``;
    a single-host "ring" gets no wire (classic local delivery). The
    policy is parsed once and every NIC holds that one object; nothing
    downstream mutates a policy.
    """
    demands = sorted(motivation_demands(setup.nominal_link_bps).items())
    policy = motivation_policy(setup.link_bps)
    topo = Topology()
    for i in range(hosts):
        nic = f"nic{i}"
        host = f"host{i}"
        topo.nic(nic, policy)
        topo.host(host, nic=nic)
        for app, demand in demands:
            topo.app(host, app, demand=demand)
        if hosts > 1:
            topo.wire(nic, to=f"nic{(i + 1) % hosts}", propagation_delay=prop)
    return topo


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    hosts: int = 64,
    shards: int = 1,
    duration: float = 2.0,
    window: Optional[float] = None,
    prop: float = DEFAULT_PROP,
    timeout: Optional[float] = None,
) -> FabricResult:
    """Run the ring fabric and report aggregate scaling numbers.

    The workload (and therefore every per-domain tally) is identical
    for every ``shards`` value; only ``wall_seconds`` varies.
    """
    if hosts < 1:
        raise ValueError(f"hosts must be >= 1, got {hosts}")
    setup = setup if setup is not None else DEFAULT_SETUP
    topo = build_fabric(setup, hosts=hosts, prop=prop)
    spec = SimulationSpec(
        topology=topo,
        setup=setup,
        duration=duration,
        title=f"fabric — {hosts} hosts",
        shards=shards,
        window=window,
        timeout=timeout,
    )
    result = spec.run()
    app_rates: Dict[str, float] = {}
    for app in result.app_names():
        app_rates[app] = result.throughput_bps(app)
    # Effective worker processes: degraded plans collapse to one shard,
    # and a daemonic parent (campaign task worker) runs inline.
    workers = min(shards, hosts) if shard.can_spawn_workers() else 1
    if result.degraded:
        workers = 1
    return FabricResult(
        hosts=hosts,
        shards=shards,
        workers=workers,
        windows=result.windows,
        duration=duration,
        wall_seconds=result.wall_seconds,
        total_packets=result.total_packets,
        total_events=result.total_events,
        total_submitted=result.total_submitted,
        total_dropped=result.total_dropped,
        app_rates=app_rates,
        degraded=result.degraded,
        fluid_absorbed=result.total_fluid_absorbed,
        fluid_spills=result.total_fluid_spills,
        fluid_suspends=result.total_fluid_suspends,
        domain_events={name: d.events for name, d in result.domains.items()},
    )
