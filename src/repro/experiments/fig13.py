"""E-F13 — Figure 13: maximum throughput vs packet size.

The paper injects fixed-length packets at full speed under the fair
queueing policy and reports the maximum packets-per-second each
scheduler sustains, plus the CPU cores the DPDK QoS Scheduler burns to
get there. FlowValve is line-rate-bound for ≥512 B frames and NP-
processing-bound at 64 B (19.69 Mpps ≈ 50 MEs × 1.2 GHz / ~3 k cycles);
DPDK is scheduler-core-bound at ~2.25 Mpps per 2.3 GHz core.

These runs execute at *full* modelled rates (no rate scaling) over
short windows — throughput capacity needs cycle-level contention, not
long timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines import DpdkQosParams, DpdkQosScheduler, HtbClass, HtbQdisc
from ..core import FlowValveFrontend
from ..core.sched_tree import SchedulingParams
from ..net import Link, PacketFactory, PacketSink
from ..nic import NicConfig, NicPipeline
from ..host import FixedRateSender
from ..sim import Simulator
from ..stats.report import Table
from ..tc.ast import FilterSpec
from ..tc.classifier import Classifier
from ..units import line_rate_pps
from .base import ScaledSetup
from .policies import fair_policy

__all__ = ["Fig13Row", "Fig13Result", "run", "PAPER_FIG13"]

#: Published numbers (Mpps) for the sizes quoted in the paper's text;
#: ``None`` marks sizes shown only graphically.
PAPER_FIG13: Dict[int, Dict[str, Optional[float]]] = {
    1518: {"flowvalve": 3.23, "dpdk": 2.25, "dpdk_cores": 1},
    1024: {"flowvalve": 4.75, "dpdk": 4.49, "dpdk_cores": 2},
    512: {"flowvalve": None, "dpdk": None, "dpdk_cores": 4},
    256: {"flowvalve": None, "dpdk": None, "dpdk_cores": 4},
    128: {"flowvalve": None, "dpdk": None, "dpdk_cores": 4},
    64: {"flowvalve": 19.69, "dpdk": 9.06, "dpdk_cores": 4},
}

#: Scheduler cores the paper's DPDK deployment assigned per size (the
#: published rows; intermediate sizes follow the same 4-core setup).
DPDK_CORES_BY_SIZE = {1518: 1, 1024: 2, 512: 4, 256: 4, 128: 4, 64: 4}


@dataclass
class Fig13Row:
    """One packet-size row of the Fig. 13 table."""

    size: int
    flowvalve_mpps: float
    dpdk_mpps: float
    dpdk_cores: int
    line_rate_mpps: float
    paper_flowvalve: Optional[float]
    paper_dpdk: Optional[float]


def _measure_flowvalve(size: int, window: float, seed: int) -> float:
    """Forwarded Mpps of the FlowValve NIC at full 40 Gbit blast."""
    sim = Simulator(seed=seed)
    params = SchedulingParams(update_interval=0.0005, expire_after=0.005)
    frontend = FlowValveFrontend(fair_policy(40e9, 4), link_rate_bps=40e9, params=params)
    sink = PacketSink(sim, rate_window=window, record_delays=False, delay_start=window)
    nic = NicPipeline.with_flowvalve(sim, NicConfig(), frontend, receiver=sink.receive)
    factory = PacketFactory()
    # Offer 1.6× the smaller of line rate and NP capacity per app so
    # the bottleneck, whichever it is, is saturated.
    capacity_pps = min(line_rate_pps(40e9, size), NicConfig().worker_capacity_pps(3100))
    per_app_rate = 1.6 * capacity_pps / 4 * (size * 8)
    for i in range(4):
        FixedRateSender(
            sim, f"App{i}", factory, nic.submit, rate_bps=per_app_rate,
            packet_size=size, vf_index=i, jitter=0.05, rng=sim.random.stream(f"App{i}"),
        )
    warmup = 0.2 * window
    counts = {}
    sim.schedule_at(warmup, lambda: counts.update(at_warmup=sink.total_packets))
    sim.run(until=warmup + window)
    delivered_pps = (sink.total_packets - counts["at_warmup"]) / window
    return delivered_pps / 1e6


def _fair_htb_tree(link_bps: float, n: int = 4) -> HtbQdisc:
    root = HtbClass("1:1", rate_bps=link_bps, ceil_bps=link_bps)
    filters: List[FilterSpec] = []
    for i in range(n):
        classid = f"1:{0x10 + i:x}"
        HtbClass(classid, rate_bps=link_bps / n, ceil_bps=link_bps, parent=root)
        filters.append(FilterSpec(flowid=classid, match={"app": f"App{i}"}))
    return HtbQdisc(root, Classifier(filters), queue_limit=128)


def _measure_dpdk(size: int, n_cores: int, window: float, seed: int) -> float:
    """Transmitted Mpps of the DPDK QoS model with *n_cores*."""
    sim = Simulator(seed=seed)
    params = DpdkQosParams()
    sink = PacketSink(sim, rate_window=window, record_delays=False)
    link = Link(sim, 40e9, receiver=sink.receive)
    qdisc = _fair_htb_tree(40e9, 4)
    sched = DpdkQosScheduler(sim, qdisc, link, n_cores=n_cores, params=params)
    factory = PacketFactory()
    capacity_pps = min(line_rate_pps(40e9, size), params.capacity_pps(n_cores))
    per_app_rate = 1.5 * capacity_pps / 4 * (size * 8)
    for i in range(4):
        FixedRateSender(
            sim, f"App{i}", factory, sched.submit, rate_bps=per_app_rate,
            packet_size=size, vf_index=i, jitter=0.05, rng=sim.random.stream(f"App{i}"),
        )
    warmup = 0.2 * window
    counts = {}
    sim.schedule_at(warmup, lambda: counts.update(at_warmup=sink.total_packets))
    sim.run(until=warmup + window)
    delivered_pps = (sink.total_packets - counts["at_warmup"]) / window
    return delivered_pps / 1e6


@dataclass
class Fig13Result:
    """The measured Fig. 13 table (unified-API result wrapper)."""

    rows: List[Fig13Row]

    def to_table(self) -> Table:
        """Render the rows next to the published values."""
        table = Table(
            "Fig. 13 — maximum throughput (Mpps), fair queueing at 40 Gbit",
            ["size(B)", "line-rate", "FlowValve", "paper", "DPDK QoS", "paper", "DPDK cores"],
        )
        for row in self.rows:
            table.add_row(
                row.size,
                row.line_rate_mpps,
                row.flowvalve_mpps,
                row.paper_flowvalve if row.paper_flowvalve is not None else "-",
                row.dpdk_mpps,
                row.paper_dpdk if row.paper_dpdk is not None else "-",
                row.dpdk_cores,
            )
        return table


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    sizes: Optional[List[int]] = None,
    window: float = 0.002,
) -> Fig13Result:
    """Measure the Fig. 13 table. ``window`` is the full-rate
    measurement window in (simulated) seconds per cell.

    Throughput-capacity runs execute at *full* modelled rates, so only
    ``setup.seed`` is consumed; the rate-scale fields are ignored.
    """
    seed = setup.seed if setup is not None else 11
    sizes = sizes if sizes is not None else [64, 128, 256, 512, 1024, 1518]
    rows: List[Fig13Row] = []
    for size in sorted(sizes, reverse=True):
        cores = DPDK_CORES_BY_SIZE.get(size, 4)
        fv = _measure_flowvalve(size, window, seed)
        dpdk = _measure_dpdk(size, cores, window, seed)
        paper = PAPER_FIG13.get(size, {})
        rows.append(
            Fig13Row(
                size=size,
                flowvalve_mpps=round(fv, 2),
                dpdk_mpps=round(dpdk, 2),
                dpdk_cores=cores,
                line_rate_mpps=round(line_rate_pps(40e9, size) / 1e6, 2),
                paper_flowvalve=paper.get("flowvalve"),
                paper_dpdk=paper.get("dpdk"),
            )
        )
    return Fig13Result(rows=rows)
