"""Shared experiment plumbing: scaled setups, runners, result types.

**Rate scaling.** The paper's timelines run 45-60 s at 10-40 Gbit —
hundreds of millions of packets, beyond a per-packet Python DES. Every
timeline experiment therefore runs *rate-scaled* (DESIGN.md §1): all
bandwidths divide by ``scale`` and all latency/time constants multiply
by it, preserving every dimensionless ratio (packets per update epoch,
RTT/ΔT, queue time/epoch, burst/BDP). Results are reported in nominal
units by multiplying rates back up; measured delays divide by
``scale``.

Workload note: the headline enforcement figures drive *backlogged
constant-rate* senders (the paper's own Fig. 13/14 methodology, and
equivalent to its permanently-backlogged iperf/mTCP flows for
throughput purposes). The AIMD TCP host model is exercised by the
dedicated TCP-realism experiment and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..baselines import HtbQdisc, KernelQdiscRuntime
from ..net import Link, PacketFactory, PacketSink
from ..host import FixedRateSender, propagate_next_change
from ..sim import Simulator
from ..stats.report import Table
from ..topology.setup import ScaledSetup

__all__ = [
    "ScaledSetup",
    "TimelineResult",
    "run_kernel_htb_timeline",
]

#: Demand schedule type (re-exported for signatures).
Demand = Callable[[float], float]


# :class:`ScaledSetup` moved to :mod:`repro.topology.setup` when the
# topology package became the public construction API; the name is
# re-exported here (unchanged) for every historical import site.


@dataclass
class TimelineResult:
    """Per-app throughput over time, in nominal units.

    ``series`` maps app name → list of ``(bin_end_seconds, bps)``.
    """

    title: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    bin_seconds: float = 5.0
    notes: str = ""

    def mean_rate(self, app: str, start: float, end: float) -> float:
        """Average nominal rate of *app* over [start, end)."""
        samples = [v for t, v in self.series.get(app, []) if start < t <= end]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def total_rate(self, start: float, end: float) -> float:
        """Aggregate nominal rate over [start, end)."""
        return sum(self.mean_rate(app, start, end) for app in self.series)

    def to_table(self) -> Table:
        """Render as one row per time bin, one column per app."""
        apps = sorted(self.series)
        table = Table(self.title, ["time"] + apps + ["total"])
        if not apps:
            return table
        for index, (t, _) in enumerate(self.series[apps[0]]):
            row = [f"{t - self.bin_seconds:.0f}-{t:.0f}s"]
            total = 0.0
            for app in apps:
                value = self.series[app][index][1]
                total += value
                row.append(f"{value / 1e9:.2f}G")
            row.append(f"{total / 1e9:.2f}G")
            table.rows.append(row)
        return table


def run_kernel_htb_timeline(
    qdisc: HtbQdisc,
    demands: Dict[str, Demand],
    setup: ScaledSetup,
    duration: float = 60.0,
    bin_seconds: float = 5.0,
    title: str = "Kernel HTB timeline",
    packet_size: int = 1500,
    use_tcp: bool = True,
) -> TimelineResult:
    """Run a kernel qdisc runtime against the same workload.

    Kernel runs default to AIMD TCP senders (the paper used iperf3;
    a queueing scheduler needs backpressure-aware sources — blasting
    CBR through a 1000-packet FIFO measures the FIFO, not HTB).
    """
    from ..host import TcpApp, TcpParams, TcpRegistry

    sim = Simulator(seed=setup.seed)
    registry = TcpRegistry(sim)
    sink = PacketSink(
        sim, rate_window=1.0, record_delays=False,
        on_delivery=registry.handle_delivery if use_tcp else None,
    )
    # The physical wire is the NIC's rate; the policy ceiling lives in
    # the qdisc — that gap is where the overshoot artifact shows.
    link = Link(sim, setup.scaled_wire_bps, receiver=sink.receive)
    runtime = KernelQdiscRuntime(
        sim, qdisc, link, params=setup.kernel_params(),
        on_drop=registry.handle_drop if use_tcp else None,
    )
    factory = PacketFactory()
    for index, (app, demand) in enumerate(sorted(demands.items())):
        scaled_demand = _scale_demand(demand, setup.scale)
        if use_tcp:
            TcpApp(
                sim, app, registry, factory, runtime.enqueue,
                n_connections=1,
                demand=scaled_demand,
                tcp_params=TcpParams(base_rtt=100e-6 * setup.scale),
                vf_index=index,
            )
        else:
            FixedRateSender(
                sim, app, factory, runtime.enqueue,
                rate_bps=setup.sender_rate(), packet_size=packet_size,
                demand=scaled_demand, vf_index=index,
                jitter=0.1, rng=sim.random.stream(app),
            )
    sim.run(until=duration)
    result = TimelineResult(
        title=title, bin_seconds=bin_seconds,
        notes=f"scale=1/{setup.scale:.0f}, lock_util={runtime.lock_utilization:.2f}",
    )
    for app in sorted(demands):
        series = sink.rates.get(app)
        points: List[Tuple[float, float]] = []
        t = bin_seconds
        while t <= duration + 1e-9:
            rate = series.mean_rate(t - bin_seconds, t) if series else 0.0
            points.append((t, rate * setup.scale))
            t += bin_seconds
        result.series[app] = points
    return result


def _scale_demand(demand: Demand, scale: float) -> Demand:
    # Pointwise rescale: boundaries (and the piecewise-constant
    # contract behind next_change) carry over unchanged.
    return propagate_next_change(lambda t: demand(t) / scale, demand)
