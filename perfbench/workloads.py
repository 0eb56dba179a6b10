"""The benchmark's four workloads, each built from a seed.

Every workload is open loop: simulated senders follow schedules that do
not depend on the NIC's state. A workload is built by :func:`build`,
which returns a :class:`Prepared` whose ``run()`` executes the simulated
run and whose ``observables()`` reads the deterministic outcome that
``pinned.json`` pins per seed.

Set-up ends when the simulated run begins. For ``motivation`` and
``megaflow`` that is when :func:`build` returns; ``fabric`` builds its
NIC domains inside ``SimulationSpec.run()`` (in the shard workers, after
the fork), so its set-up ends when the slowest shard finishes building.

The sizes below are chosen so one run of each workload takes a few host
seconds, which lets one benchmark invocation repeat it in fresh
processes and report medians.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List

WORKLOADS = ("motivation", "megaflow", "fabric", "motivation_observed")

#: Simulated seconds of both motivation runs: the canonical hotpath run,
#: whose last 5 s have all four senders active.
MOTIVATION_DURATION = 20.0
#: Nominal seconds of flow arrivals in the megaflow run (canonical: 2.0).
MEGAFLOW_DURATION = 0.15
#: Fabric: hosts on the ring, shard worker processes, simulated seconds.
FABRIC_HOSTS = 64
FABRIC_SHARDS = 2
FABRIC_DURATION = 2.0


@dataclass
class Prepared:
    """A built workload, ready to run once."""

    #: Runs the simulation; returns the ``time.monotonic()`` reading
    #: at which set-up ended and the simulated run began.
    run: Callable[[], float]
    #: Deterministic outcome, read after ``run()``.
    observables: Callable[[], Dict[str, object]]
    #: Delivered bits per simulated nominal second, summed over apps.
    goodput_bps: Callable[[], float]
    #: ``(sim, nic, sink)`` of every NIC domain this process ran, read
    #: after ``run()`` for the traced run's per-layer counters.
    parts: Callable[[], List[tuple]]


def _timed(run: Callable[[], None]) -> Callable[[], float]:
    """*run*, returning the monotonic time it started."""

    def timed() -> float:
        began = time.monotonic()
        run()
        return began

    return timed


def _sink_observables(sim, nic, sink, flows: int) -> Dict[str, object]:
    return {
        "submitted": nic.submitted,
        "delivered": sink.total_packets,
        "dropped": nic.dropped,
        "events": sim.events_executed,
        "flows": flows,
        "app_bytes": {app: sink.bytes[app] for app in sorted(sink.bytes)},
    }


def _motivation(seed: int, *, observed: bool) -> Prepared:
    """The Fig. 11(a) hotpath workload; *observed* turns the metrics
    sampler on, as ``fv simulate --metrics`` does."""
    from repro.core import FlowValveFrontend
    from repro.experiments import hotpath
    from repro.experiments.policies import motivation_policy
    from repro.experiments.workloads import motivation_demands
    from repro.host import FixedRateSender, propagate_next_change
    from repro.net import PacketFactory, PacketSink
    from repro.nic import NicPipeline
    from repro.sim import Simulator
    from repro.stats.metrics import MetricsRegistry, MetricsSampler

    setup = replace(hotpath.DEFAULT_SETUP, seed=seed)
    duration = MOTIVATION_DURATION
    demands = motivation_demands(setup.nominal_link_bps)
    if observed:
        # hotpath.build with a metrics registry on the simulator.
        registry = MetricsRegistry()
        sim = Simulator(seed=setup.seed, metrics=registry)
        frontend = FlowValveFrontend(
            motivation_policy(setup.link_bps),
            link_rate_bps=setup.link_bps,
            params=setup.sched_params(),
        )
        sink = PacketSink(sim, rate_window=1.0, record_delays=False)
        nic = NicPipeline.with_flowvalve(
            sim, setup.nic_config(), frontend, receiver=sink.receive
        )
        factory = PacketFactory()
        for index, (app, demand) in enumerate(sorted(demands.items())):
            FixedRateSender(
                sim,
                app,
                factory,
                nic.submit,
                rate_bps=setup.sender_rate(),
                packet_size=1500,
                demand=propagate_next_change(
                    lambda t, d=demand: d(t) / setup.scale, demand
                ),
                vf_index=index,
                jitter=0.1,
                rng=sim.random.stream(app),
            )
        MetricsSampler(sim, registry, interval=duration / 100.0)
    else:
        sim, nic = hotpath.build(setup)
        sink = nic.link.receiver.__self__

    def goodput() -> float:
        return sink.total_bytes * 8 * setup.scale / duration

    return Prepared(
        run=_timed(lambda: sim.run(until=duration)),
        observables=lambda: _sink_observables(sim, nic, sink, len(demands)),
        goodput_bps=goodput,
        parts=lambda: [(sim, nic, sink)],
    )


def _megaflow(seed: int) -> Prepared:
    """The batched KVS/web/ML Poisson mix at 75% load."""
    from repro.experiments import megaflow

    setup = replace(megaflow.DEFAULT_SETUP, seed=seed)
    sim, nic, sink, workloads = megaflow.build(setup, duration=MEGAFLOW_DURATION)
    horizon = MEGAFLOW_DURATION * setup.scale * 1.02

    def observables() -> Dict[str, object]:
        out = _sink_observables(
            sim, nic, sink, sum(w.flows_started for w in workloads)
        )
        cache = nic.app.labeler.cache
        out["emc_misses"] = cache.misses
        out["emc_evictions"] = cache.evictions
        out["windows"] = sum(w.windows_generated for w in workloads)
        return out

    return Prepared(
        run=_timed(lambda: sim.run(until=horizon)),
        observables=observables,
        goodput_bps=lambda: sink.total_bytes * 8 * setup.scale / horizon,
        parts=lambda: [(sim, nic, sink)],
    )


def _fabric(seed: int, shards: int = FABRIC_SHARDS) -> Prepared:
    """The 64-host motivation ring on the sharded engine.

    ``run()`` wraps ``build_domains`` so that every build (inline, or
    in a forked shard worker) writes its end time to a pipe; set-up ends
    at the latest. With one shard the ring runs inline, in this process,
    and the domains the engine builds are kept for :attr:`Prepared.parts`.
    """
    from repro.experiments import fabric
    from repro.topology import SimulationSpec, build as topology_build

    setup = replace(fabric.DEFAULT_SETUP, seed=seed)
    spec = SimulationSpec(
        topology=fabric.build_fabric(setup, hosts=FABRIC_HOSTS),
        setup=setup,
        duration=FABRIC_DURATION,
        title=f"fabric — {FABRIC_HOSTS} hosts",
        shards=shards,
        timeout=150.0,
    )
    results: List[object] = []
    domains: List[object] = []
    build_domains = topology_build.build_domains

    def run() -> float:
        built_r, built_w = os.pipe()

        def timed_build(*args, **kwargs):
            built = build_domains(*args, **kwargs)
            os.write(built_w, struct.pack("d", time.monotonic()))
            domains.extend(built)
            return built

        topology_build.build_domains = timed_build
        try:
            results.append(spec.run())
        finally:
            topology_build.build_domains = build_domains
            os.close(built_w)
        # The shard workers have been joined, so every write end is closed.
        with os.fdopen(built_r, "rb") as pipe:
            ends = pipe.read()
        return max(struct.unpack(f"{len(ends) // 8}d", ends))

    def observables() -> Dict[str, object]:
        result = results[0]
        app_bytes: Dict[str, int] = {}
        for domain in result.domains.values():
            for app, count in domain.bytes.items():
                app_bytes[app] = app_bytes.get(app, 0) + count
        return {
            "submitted": result.total_submitted,
            "delivered": result.total_packets,
            "dropped": result.total_dropped,
            "events": result.total_events,
            "flows": sum(len(d.apps) for d in result.domains.values()),
            "app_bytes": {app: app_bytes[app] for app in sorted(app_bytes)},
            "windows": result.windows,
        }

    return Prepared(
        run=run,
        observables=observables,
        goodput_bps=lambda: sum(
            results[0].throughput_bps(app) for app in results[0].app_names()
        ),
        parts=lambda: [(d.sim, d.nic, d.sink) for d in domains],
    )


def build(name: str, seed: int, *, inline: bool = False) -> Prepared:
    """Build workload *name* for *seed*. *inline* runs ``fabric`` on
    one process (the traced run; counts are shard-count invariant)."""
    if name == "motivation":
        return _motivation(seed, observed=False)
    if name == "motivation_observed":
        return _motivation(seed, observed=True)
    if name == "megaflow":
        return _megaflow(seed)
    if name == "fabric":
        return _fabric(seed, shards=1 if inline else FABRIC_SHARDS)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
