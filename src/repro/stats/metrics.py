"""The metrics registry — named counters and probes.

Production schedulers ship first-class statistics (the kernel qdisc's
``tc -s`` counters, DPDK's ``rte_sched`` stats API); this module is the
reproduction's equivalent. Components obtain named counters from a
:class:`MetricsRegistry` and update them on the hot path, or — cheaper
still — register *probes*: zero-argument callables evaluated only when
a snapshot is taken, so counters a component already keeps (ring
depths, drop tallies) cost nothing extra per packet.

The registry mirrors the :class:`~repro.sim.trace.Tracer` /
``NullTracer`` split: :class:`NullMetricsRegistry` is the default on
every simulator and discards everything at near zero cost, so
instrumented hot paths guard with ``if registry.enabled:`` exactly like
they do for tracing.

:class:`MetricsSampler` is a simulation process that snapshots a
registry on a fixed period; its rows (and any registry snapshot) export
to JSONL for offline analysis alongside :meth:`Tracer.to_jsonl`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

__all__ = [
    "Counter",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsSampler",
    "write_jsonl",
]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must not be negative for a counter)."""
        self.value += amount


class MetricsRegistry:
    """Creates, deduplicates and snapshots named instruments.

    ``counter`` is get-or-create: asking twice for the same name
    returns the same counter, so independent components can share a
    tally. :meth:`probe` registers a callable evaluated lazily at
    snapshot time — the preferred hook for state a component already
    maintains.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._probes: Dict[str, Callable[[], Any]] = {}

    @property
    def enabled(self) -> bool:
        """True — instruments record (see :class:`NullMetricsRegistry`)."""
        return True

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register *fn* to supply ``name``'s value at snapshot time."""
        self._probes[name] = fn

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered counter and probe names, sorted."""
        return sorted(set(self._counters) | set(self._probes))

    def snapshot(self) -> Dict[str, Any]:
        """One flat dict of every instrument's current value.

        Counters map to scalars, probes to whatever their callable
        returns (which must be JSON-serialisable for the JSONL export).
        """
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, fn in self._probes.items():
            out[name] = fn()
        return out


class _NullInstrument:
    """Shared do-nothing counter."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    value = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Discards everything; the default on every simulator.

    ``counter`` returns one shared no-op object and probes are
    ignored, so components can instrument unconditionally — though
    hot paths should still guard on :attr:`enabled` to skip building
    payloads at all.
    """

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


class MetricsSampler:
    """Periodically snapshots a registry during a simulation run.

    A generator process on the shared simulator: every ``interval``
    simulated seconds it appends ``{"time": now, **registry.snapshot()}``
    to :attr:`rows`. With a :class:`NullMetricsRegistry` no process is
    even started, so the default configuration schedules zero events.
    """

    def __init__(self, sim, registry: MetricsRegistry, interval: float = 0.1):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.rows: List[Dict[str, Any]] = []
        self._process = sim.process(self._run()) if registry.enabled else None

    def _run(self):
        interval = self.interval
        while True:
            yield interval
            self.sample()

    def sample(self) -> Dict[str, Any]:
        """Take one snapshot now (also usable manually, e.g. at t=end)."""
        row = {"time": self.sim.now}
        row.update(self.registry.snapshot())
        self.rows.append(row)
        return row

    def to_jsonl(self, path: str) -> int:
        """Write all sampled rows as JSON lines; returns the row count."""
        return write_jsonl(path, self.rows)


def write_jsonl(path: str, rows: List[Dict[str, Any]]) -> int:
    """Write dict *rows* one-JSON-object-per-line; returns the count."""
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    return len(rows)
