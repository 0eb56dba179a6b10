"""The scheduler crossbar: any scheduler × any workload, one spec.

ROADMAP item 3. ``run(setup, scheduler=..., workload=...)`` drives a
named crossbar scheduler (:mod:`repro.sched.registry`) against a named
workload (policy + demand timeline) on the shared NIC model and
returns the usual :class:`~repro.experiments.base.TimelineResult`.

Every cell is one single-NIC :class:`~repro.topology.Topology` whose
NIC declares the scheduler, built by the shared domain builder. The
default FlowValve scheduler runs the unchanged calibrated NIC pipeline
— selecting it reproduces the Fig. 11 numbers byte-identically. Every
other scheduler runs on the :class:`~repro.sched.runtime.ScheduledPort`
worker-model runtime, which charges the scheduler's step costs and
paces the same wire.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CampaignError
from ..topology import SimulationSpec, Topology, build
from .base import ScaledSetup, TimelineResult
from .policies import fair_policy, motivation_policy
from .workloads import fair_queueing_demands, motivation_demands

__all__ = ["WORKLOADS", "run"]

#: Workload name -> (policy builder, demand builder, default setup).
WORKLOADS = {
    "motivation": (
        motivation_policy,
        lambda link_bps: motivation_demands(link_bps),
        lambda seed: ScaledSetup(seed=seed),  # 10 Gbit policy, 40 Gbit wire
    ),
    "fair": (
        fair_policy,
        lambda link_bps: fair_queueing_demands(),
        lambda seed: ScaledSetup.for_link(40e9, seed=seed),
    ),
}


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    scheduler: str = "flowvalve",
    workload: str = "motivation",
    backend: str = "pifo",
    duration: float = 20.0,
    bin_seconds: float = 5.0,
    queue_limit: int = 512,
) -> TimelineResult:
    """Run one scheduler×workload cell of the crossbar.

    Parameters
    ----------
    scheduler: registry name (``fv campaign`` axis / ``--scheduler``).
    workload: ``"motivation"`` (Fig. 11a policy + timeline) or
        ``"fair"`` (Fig. 11b fair queueing).
    backend: queue backend for rank-program schedulers
        (``"pifo"``/``"eiffel"``; adapters ignore it).
    queue_limit: per-scheduler buffering in packets.
    """
    if workload not in WORKLOADS:
        raise CampaignError(
            f"unknown crossbar workload {workload!r}; known: {sorted(WORKLOADS)}"
        )
    policy_of, demands_of, default_setup = WORKLOADS[workload]
    if setup is None:
        setup = default_setup(7)
    # Same convention as fig11: the policy is built at the *scaled*
    # link rate (its class rates live in sim units), demands at the
    # nominal rate (the builder scales them per sender).
    topo = Topology().nic(
        "nic0", policy_of(setup.link_bps),
        scheduler=scheduler, backend=backend, queue_limit=queue_limit,
    )
    topo.host("host0", nic="nic0")
    for app, demand in sorted(demands_of(setup.nominal_link_bps).items()):
        topo.app("host0", app, demand=demand)
    spec = SimulationSpec(
        topology=topo, setup=setup, duration=duration,
        bin_seconds=bin_seconds, title=f"crossbar — {scheduler} on {workload}",
    )
    # Built here rather than through spec.run(): the notes name the
    # port's scheduler, which only the live domain holds. One domain
    # runs exactly as the inline engine would run it. The FlowValve NIC
    # keeps the reference notes of the Fig. 11 runs.
    [built] = build.build_domains(spec, [0])
    built.sim.run(until=duration)
    summary = build.summarize_domain(built, spec)
    port = "" if built.port is None else f"scheduler={built.port.scheduler.name}, "
    return TimelineResult(
        title=spec.title,
        series=summary.series,
        bin_seconds=bin_seconds,
        notes=f"scale=1/{setup.scale:.0f}, {port}drops={summary.dropped}/{summary.submitted}",
    )
