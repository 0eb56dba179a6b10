"""E-MEGAFLOW — the million-flow trace engine benchmark (DESIGN.md §12).

Drives the motivation policy with the batched heavy-tailed trace
workloads (:class:`~repro.host.workload_gen.TraceWorkload`,
``mode="batched"``) instead of backlogged constant-rate senders: a
Poisson mix of KVS mice, web transfers and ML elephants whose *flow
count* — not packet count — is the stressor. Every flow's first packet
misses the exact-match cache, so the run exercises the three scaling
mechanisms this experiment exists to measure together:

* the windowed trace generator (one train per horizon window, no
  per-flow simulation state),
* the fluid lane's classification replay (an EMC miss absorbs
  analytically instead of suspending the lane),
* constant-memory streaming stats (sketch-mode sink, ledger-folded
  workload tallies, bounded LRU cache churn).

Honest framing: this is a *single-core DES throughput* experiment —
the headline metric is kernel events per packet over a million-flow
trace, not a claim about the NFP hardware. Results are deterministic
for a fixed seed; ``benchmarks/test_bench_megaflow.py`` pins them and
persists ``BENCH_megaflow.json``.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, List, Optional, Tuple

from ..core import FlowValveFrontend
from ..host import TraceWorkload, WORKLOAD_PRESETS
from ..net import PacketFactory, PacketSink
from ..nic import NicPipeline
from ..sim import Simulator
from ..stats.latency import LatencySummary
from ..stats.perf import HotpathResult, measure_run
from .base import ScaledSetup
from .policies import motivation_policy

__all__ = [
    "DEFAULT_SETUP",
    "DEFAULT_DURATION",
    "DEFAULT_MIX",
    "MegaflowResult",
    "build",
    "run",
]

#: The reference configuration every recorded megaflow number uses —
#: the hotpath setup (10 Gbit policy link at rate-scale 200).
DEFAULT_SETUP = ScaledSetup(nominal_link_bps=10e9, scale=200.0, wire_bps=10e9)

#: Nominal seconds of flow arrivals in the canonical run — sized so
#: the default mix crosses 10⁶ distinct flows with margin.
DEFAULT_DURATION = 2.0

#: (app, preset, offered fraction of the nominal link). Apps match the
#: motivation policy's filter table; the offered shares keep the link
#: at ~75% load so enforcement (not tail drops) shapes the run. KVS
#: mice carry the flow count, ML elephants the byte volume.
DEFAULT_MIX: Tuple[Tuple[str, str, float], ...] = (
    ("KVS", "kvs", 0.40),
    ("ML", "ml", 0.15),
    ("WS", "web", 0.20),
)


@dataclass
class MegaflowResult:
    """One measured megaflow run (exact counts deterministic per seed)."""

    perf: HotpathResult
    #: Distinct flows generated: a workload's five-tuples repeat only
    #: after 2^30 flows (16,384 ephemeral ports on each of 2^16 source
    #: hosts; see ``TraceWorkload._mint_flow``).
    flows: int
    flows_completed: int
    delivered: int
    dropped: int
    #: Horizon windows the batched engines generated, total.
    windows: int
    #: Fluid-lane absorption tallies (0 when the lane is off).
    absorbed: int
    miss_absorbed: int
    #: Exact-match cache churn counters.
    emc_hits: int
    emc_misses: int
    emc_evictions: int
    emc_hit_ratio: float
    #: One-way delay summary in *nominal* seconds (sketch accuracy).
    delay: LatencySummary
    #: Occupied sketch buckets — the sink's whole variable footprint.
    sketch_bins: int
    #: ``ru_maxrss`` after the run (KiB on Linux): the process-lifetime
    #: peak, which the bench bounds to catch accidental per-packet or
    #: per-flow state growth.
    peak_rss_kib: int

    def to_table(self):
        from ..stats.report import Table

        table = Table(f"megaflow — {self.perf.label}", ["metric", "value"])
        table.add_row("wall seconds", f"{self.perf.wall_seconds:.2f}")
        table.add_row("kernel events", self.perf.events)
        table.add_row("packets", self.perf.packets)
        table.add_row("events/packet", f"{self.perf.events_per_packet:.3f}")
        table.add_row("packets/sec", f"{self.perf.packets_per_sec:,.0f}")
        table.add_row("distinct flows", self.flows)
        table.add_row("flows completed", self.flows_completed)
        table.add_row("delivered", self.delivered)
        table.add_row("dropped", self.dropped)
        table.add_row("generator windows", self.windows)
        table.add_row("fluid absorbed", self.absorbed)
        table.add_row("fluid miss-absorbed", self.miss_absorbed)
        table.add_row("emc hits", self.emc_hits)
        table.add_row("emc misses", self.emc_misses)
        table.add_row("emc evictions", self.emc_evictions)
        table.add_row("emc hit ratio", f"{self.emc_hit_ratio:.3f}")
        table.add_row("delay p50 (nominal µs)", f"{self.delay.p50 * 1e6:.1f}")
        table.add_row("delay p99 (nominal µs)", f"{self.delay.p99 * 1e6:.1f}")
        table.add_row("sketch bins", self.sketch_bins)
        table.add_row("peak RSS (MiB)", f"{self.peak_rss_kib / 1024:.0f}")
        return table

    def extra(self) -> Dict[str, object]:
        """The non-perf fields as a flat dict (BENCH json payload)."""
        return {
            "flows": self.flows,
            "flows_completed": self.flows_completed,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "windows": self.windows,
            "absorbed": self.absorbed,
            "miss_absorbed": self.miss_absorbed,
            "emc_hits": self.emc_hits,
            "emc_misses": self.emc_misses,
            "emc_evictions": self.emc_evictions,
            "emc_hit_ratio": round(self.emc_hit_ratio, 6),
            "delay_p50_nominal": self.delay.p50,
            "delay_p99_nominal": self.delay.p99,
            "sketch_bins": self.sketch_bins,
            "peak_rss_kib": self.peak_rss_kib,
        }


def build(
    setup: Optional[ScaledSetup] = None,
    *,
    duration: float = DEFAULT_DURATION,
    mode: str = "batched",
    fluid: Optional[bool] = None,
    stats_mode: str = "sketch",
    mix: Tuple[Tuple[str, str, float], ...] = DEFAULT_MIX,
) -> Tuple[Simulator, NicPipeline, PacketSink, List[TraceWorkload]]:
    """Assemble the megaflow trace workload on the DES pipeline.

    *duration* is in nominal seconds (flow arrivals stop there; the
    run horizon adds a small drain margin). *mode*, *fluid* and
    *stats_mode* exist so the equivalence tests can pin every engine
    combination to identical outcomes.
    """
    setup = setup if setup is not None else DEFAULT_SETUP
    policy = motivation_policy(setup.link_bps)
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        policy, link_rate_bps=setup.link_bps, params=setup.sched_params()
    )
    sink = PacketSink(
        sim,
        rate_window=1.0,
        record_delays=True,
        stats_mode=stats_mode,
        # One fold per scaled second keeps the lazy-delivery buffer (and
        # with it peak RSS) constant in the packet count — see the
        # PacketSink docstring.
        fold_interval=1.0,
    )
    overrides = {} if fluid is None else {"fluid": fluid}
    nic = NicPipeline.with_flowvalve(
        sim, setup.nic_config(**overrides), frontend, receiver=sink.receive
    )
    factory = PacketFactory()
    workloads: List[TraceWorkload] = []
    for index, (app, preset, fraction) in enumerate(sorted(mix)):
        base = WORKLOAD_PRESETS[preset]
        profile = _dc_replace(
            base, flow_rate_limit_bps=base.flow_rate_limit_bps / setup.scale
        )
        workloads.append(
            TraceWorkload(
                sim,
                app,
                profile,
                fraction * setup.nominal_link_bps / setup.scale,
                nic.submit,
                factory,
                vf_index=index,
                duration=duration * setup.scale,
                mode=mode,
            )
        )
    return sim, nic, sink, workloads


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    duration: float = DEFAULT_DURATION,
    mode: str = "batched",
    fluid: Optional[bool] = None,
    stats_mode: str = "sketch",
) -> MegaflowResult:
    """Measure the megaflow trace run end to end."""
    setup = setup if setup is not None else DEFAULT_SETUP
    sim, nic, sink, workloads = build(
        setup,
        duration=duration,
        mode=mode,
        fluid=fluid,
        stats_mode=stats_mode,
    )
    horizon = duration * setup.scale * 1.02
    perf = measure_run(
        sim,
        lambda: sim.run(until=horizon),
        lambda: nic.submitted,
        label=f"megaflow-scale{setup.scale:g}-{duration:g}s-{mode}",
    )
    emc = nic.app.labeler.cache
    fluid_lane = nic._fluid
    delay = sink.latency_summary().scaled(1.0 / setup.scale)
    sketch_bins = sink.delay_sketch().bin_count if stats_mode == "sketch" else 0
    return MegaflowResult(
        perf=perf,
        flows=sum(w.flows_started for w in workloads),
        flows_completed=sum(w.flows_completed for w in workloads),
        delivered=sink.total_packets,
        dropped=nic.dropped,
        windows=sum(w.windows_generated for w in workloads),
        absorbed=getattr(fluid_lane, "absorbed", 0) if fluid_lane else 0,
        miss_absorbed=getattr(fluid_lane, "miss_absorbed", 0) if fluid_lane else 0,
        emc_hits=emc.hits,
        emc_misses=emc.misses,
        emc_evictions=emc.evictions,
        emc_hit_ratio=emc.hit_ratio,
        delay=delay,
        sketch_bins=sketch_bins,
        peak_rss_kib=int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    )
