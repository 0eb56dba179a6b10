"""TCP-realism check: enforcement under closed-loop TCP senders.

The headline figures drive backlogged constant-rate senders (the
paper's Fig. 13/14 methodology). Real tenants run TCP, whose ack
clock, slow start, and loss response interact with the policer. This
experiment re-runs the guarantee scenario (WS weighted against the
KVS ≻ ML subtree) with ack-clocked AIMD connections and reports how
far the achieved shares drift from the policy targets.

Two findings worth knowing before trusting any policer in production
— both reproduce here and both are discussed in EXPERIMENTS.md:

* TCP fills a *policed* (unbuffered) rate to ~95-100% only when the
  policer's burst comfortably exceeds the connection's BDP; and
* a class's TCP underfill is not lost — FlowValve's shadow buckets
  lend it out, so the *total* stays on the link rate even when the
  per-class split drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core import FlowValveFrontend
from ..host import TcpApp, TcpParams, TcpRegistry
from ..host.traffic import windows
from ..net import PacketFactory, PacketSink
from ..nic import NicPipeline
from ..sim import Simulator
from ..stats.report import Table
from .base import ScaledSetup
from .policies import motivation_policy

__all__ = ["TcpRealismResult", "run"]

#: The published testbed for both TCP-realism regimes.
DEFAULT_SETUP = ScaledSetup(nominal_link_bps=10e9, scale=100.0, wire_bps=10e9, seed=21)


@dataclass
class TcpRealismResult:
    """Per-app targets vs TCP-achieved rates (nominal bit/s)."""

    targets: Dict[str, float]
    achieved: Dict[str, float]
    total_target: float
    total_achieved: float
    title: str = "TCP realism — policy targets vs TCP-achieved shares"

    def drift(self, app: str) -> float:
        """Relative deviation of *app* from its policy target."""
        target = self.targets[app]
        if target == 0:
            return 0.0
        return (self.achieved[app] - target) / target

    def to_table(self) -> Table:
        """Render targets vs achieved with per-app drift."""
        table = Table(self.title, ["app", "target", "TCP achieved", "drift"])
        for app in sorted(self.targets):
            table.add_row(
                app,
                f"{self.targets[app] / 1e9:.2f}G",
                f"{self.achieved[app] / 1e9:.2f}G",
                f"{self.drift(app):+.1%}" if self.targets[app] else "-",
            )
        table.add_row("total", f"{self.total_target / 1e9:.2f}G",
                      f"{self.total_achieved / 1e9:.2f}G", "")
        return table


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    regime: str = "shared",
    duration: float = 40.0,
    connections_per_app: int = 1,
) -> TcpRealismResult:
    """Run one TCP-realism regime (unified API).

    ``regime="shared"`` holds NC at its 2 Gbit management demand so the
    weighted split among WS/KVS/ML is observable; ``"backlogged"``
    backlogs all four apps, letting NC's strict priority take the link.
    """
    setup = setup if setup is not None else DEFAULT_SETUP
    if regime == "shared":
        return _run_shared(setup, duration)
    if regime == "backlogged":
        return _run_backlogged(setup, duration, connections_per_app)
    raise ValueError(
        f"tcp_realism regime must be 'shared' or 'backlogged', got {regime!r}"
    )


def _run_backlogged(
    setup: ScaledSetup,
    duration: float,
    connections_per_app: int,
) -> TcpRealismResult:
    """All four motivation-example apps backlogged via TCP for the
    whole run; steady-state shares measured over the second half."""
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    registry = TcpRegistry(sim)
    sink = PacketSink(sim, rate_window=1.0, record_delays=False,
                      on_delivery=registry.handle_delivery)
    nic = NicPipeline.with_flowvalve(sim, setup.nic_config(), frontend,
                                     receiver=sink.receive,
                                     on_drop=registry.handle_drop)
    factory = PacketFactory()
    apps = ("NC", "WS", "KVS", "ML")
    for index, app in enumerate(apps):
        TcpApp(
            sim, app, registry, factory, nic.submit,
            n_connections=connections_per_app,
            demand=windows((0, duration, 100 * setup.link_bps)),
            tcp_params=TcpParams(base_rtt=100e-6 * setup.scale),
            vf_index=index,
        )
    sim.run(until=duration)

    # Policy targets with everyone backlogged (×0.97 root headroom):
    # NC priority → everything; but NC *is* TCP-backlogged here, so the
    # policy gives NC the link and starves the rest. That makes a dull
    # experiment — instead NC's steady target is what its strict
    # priority grants it against its own demand; with all four hungry
    # the enforced split is NC-dominated. We therefore report targets
    # for the *observable* regime: NC full, others ≈ 0.
    b = setup.nominal_link_bps * 0.97
    targets = {"NC": b, "WS": 0.0, "KVS": 0.0, "ML": 0.0}
    achieved = {
        app: (sink.rates[app].mean_rate(duration / 2, duration) if app in sink.rates else 0.0)
        * setup.scale
        for app in apps
    }
    return TcpRealismResult(
        targets=targets,
        achieved=achieved,
        total_target=b,
        total_achieved=sum(achieved.values()),
        title="TCP realism (backlogged regime) — targets vs achieved",
    )


def _run_shared(setup: ScaledSetup, duration: float) -> TcpRealismResult:
    """The sharing regime: NC held at its 2 Gbit management demand so
    the weighted/guaranteed split among WS/KVS/ML is observable under
    TCP."""
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    registry = TcpRegistry(sim)
    sink = PacketSink(sim, rate_window=1.0, record_delays=False,
                      on_delivery=registry.handle_delivery)
    nic = NicPipeline.with_flowvalve(sim, setup.nic_config(), frontend,
                                     receiver=sink.receive,
                                     on_drop=registry.handle_drop)
    factory = PacketFactory()
    demands = {
        "NC": windows((0, duration, 2e9 / setup.scale * 1.0)),
        "WS": windows((0, duration, 1e12)),
        "KVS": windows((0, duration, 1e12)),
        "ML": windows((0, duration, 1e12)),
    }
    for index, (app, demand) in enumerate(demands.items()):
        TcpApp(sim, app, registry, factory, nic.submit, n_connections=1,
               demand=demand, tcp_params=TcpParams(base_rtt=100e-6 * setup.scale),
               vf_index=index)
    sim.run(until=duration)

    b = setup.nominal_link_bps
    rest = 0.97 * b - 2e9
    targets = {
        "NC": 2e9,
        "WS": rest / 3,
        "KVS": 2 * rest / 3 - 2e9,
        "ML": 2e9,
    }
    achieved = {
        app: (sink.rates[app].mean_rate(duration / 2, duration) if app in sink.rates else 0.0)
        * setup.scale
        for app in demands
    }
    return TcpRealismResult(
        targets=targets,
        achieved=achieved,
        total_target=0.97 * b,
        total_achieved=sum(achieved.values()),
        title="TCP realism (shared regime) — targets vs achieved",
    )
