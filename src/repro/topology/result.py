"""Result types for topology-built simulations.

A :class:`SimulationResult` aggregates one picklable
:class:`DomainSummary` per domain — the shard workers' wire format —
and adapts back to the classic :class:`TimelineResult` for the figure
pipeline. Everything except ``wall_seconds`` is deterministic for a
fixed spec (and identical across shard counts — the determinism suite
compares these objects field by field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["DomainSummary", "SimulationResult", "assemble_result"]


@dataclass
class DomainSummary:
    """One domain's harvested tallies (picklable; see
    :func:`repro.topology.build.summarize_domain`)."""

    name: str
    index: int
    scheduler: str
    apps: Tuple[str, ...]
    packets: Dict[str, int]
    bytes: Dict[str, int]
    #: app -> [(bin_end_seconds, nominal_bps)]
    series: Dict[str, List[Tuple[float, float]]]
    delivered: int
    delivered_bytes: int
    submitted: int
    dropped: int
    drops_by_reason: Dict[str, int]
    events: int
    #: collect_records taps: (app, seq, repr(time)) per delivery /
    #: (app, seq, reason, repr(time)) per drop; None when not recording.
    records: Optional[List[tuple]] = None
    drop_records: Optional[List[tuple]] = None
    #: Fluid fast-forward lane tallies (0 when the lane is off). Part
    #: of the bench artifact so a regression can be localized to the
    #: domain whose lane disengaged, not just the event total.
    fluid_absorbed: int = 0
    fluid_spills: int = 0
    fluid_suspends: int = 0


@dataclass
class SimulationResult:
    """The outcome of ``SimulationSpec.run()``.

    ``domains`` is keyed by domain name in topology order.
    ``wall_seconds`` is the only wall-clock-dependent field; comparing
    two results for determinism means comparing everything else.
    """

    title: str
    duration: float
    bin_seconds: float
    scale: float
    seed: int
    shards: int
    windows: int
    degraded: bool
    domains: Dict[str, DomainSummary]
    wall_seconds: float
    notes: str = ""

    # ------------------------------------------------------------------
    @property
    def total_packets(self) -> int:
        """Frames delivered across every domain's sink."""
        return sum(d.delivered for d in self.domains.values())

    @property
    def total_submitted(self) -> int:
        return sum(d.submitted for d in self.domains.values())

    @property
    def total_dropped(self) -> int:
        return sum(d.dropped for d in self.domains.values())

    @property
    def total_events(self) -> int:
        """Kernel events executed, summed over every domain simulator."""
        return sum(d.events for d in self.domains.values())

    @property
    def total_fluid_absorbed(self) -> int:
        return sum(d.fluid_absorbed for d in self.domains.values())

    @property
    def total_fluid_spills(self) -> int:
        return sum(d.fluid_spills for d in self.domains.values())

    @property
    def total_fluid_suspends(self) -> int:
        return sum(d.fluid_suspends for d in self.domains.values())

    def throughput_bps(self, app: str) -> float:
        """Aggregate delivered nominal rate for *app* over the run."""
        if self.duration <= 0:
            return 0.0
        total = sum(d.bytes.get(app, 0) for d in self.domains.values())
        return total * 8 / self.duration * self.scale

    def app_names(self) -> List[str]:
        names = set()
        for domain in self.domains.values():
            names.update(domain.apps)
        return sorted(names)

    def timeline(self):
        """Adapt to the classic :class:`TimelineResult`.

        Single-domain results carry that domain's per-app series
        verbatim (bit-identical to the historical runner); multi-domain
        results sum the per-app series bin-by-bin across domains.
        """
        from ..experiments.base import TimelineResult

        result = TimelineResult(
            title=self.title, bin_seconds=self.bin_seconds, notes=self.notes
        )
        for app in self.app_names():
            merged: Dict[float, float] = {}
            order: List[float] = []
            for domain in self.domains.values():
                for t, value in domain.series.get(app, ()):
                    if t not in merged:
                        merged[t] = 0.0
                        order.append(t)
                    merged[t] += value
            result.series[app] = [(t, merged[t]) for t in order]
        return result

    def to_table(self):
        return self.timeline().to_table()


def assemble_result(spec, plan, barriers, summaries, wall_seconds: float,
                    extra_notes: str = "") -> SimulationResult:
    """Combine worker summaries into the final result (engine hook)."""
    domains = {summary.name: summary for summary in sorted(summaries, key=lambda s: s.index)}
    scale = spec.setup.scale
    if len(domains) == 1:
        only = next(iter(domains.values()))
        notes = f"scale=1/{scale:.0f}, drops={only.dropped}/{only.submitted}"
    else:
        total_dropped = sum(d.dropped for d in domains.values())
        total_submitted = sum(d.submitted for d in domains.values())
        notes = (
            f"scale=1/{scale:.0f}, domains={len(domains)}, "
            f"shards={plan.n_shards}, windows={len(barriers)}, "
            f"drops={total_dropped}/{total_submitted}"
        )
        if plan.degraded:
            notes += " [degraded: zero lookahead, sequential fallback]"
    notes += extra_notes
    return SimulationResult(
        title=spec.title,
        duration=spec.duration,
        bin_seconds=spec.bin_seconds,
        scale=scale,
        seed=spec.setup.seed,
        shards=plan.n_shards,
        windows=len(barriers),
        degraded=plan.degraded,
        domains=domains,
        wall_seconds=wall_seconds,
        notes=notes,
    )
