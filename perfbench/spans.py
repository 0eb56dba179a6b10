"""Spans around each layer's entry points, recorded from outside ``src/``.

:class:`Tracer` replaces the entry points in :data:`ENTRY_POINTS` on
their classes (or modules) with timing wrappers. Install it before the
workload is built: hot paths bind methods once at construction, so
objects built earlier keep calling the originals.

A span's self time is its duration minus the time of the spans it
contains; a layer's self time is the sum over its spans. The spans
nest inside ``Simulator.run`` (or, on the sharded engine, inside the
barrier loop), so the layer self times partition the traced time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute path) of every timed entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.simulator", "Simulator.run"),
    ("sim", "repro.sim.events", "EventQueue.merge_run"),
    ("host", "repro.host.traffic", "FixedRateSender._run"),
    ("host", "repro.host.workload_gen", "TraceWorkload._window_step"),
    ("nic.ingress", "repro.nic.pipeline", "NicPipeline.submit"),
    ("nic.ingress", "repro.nic.pipeline", "NicPipeline.submit_burst"),
    ("nic.ingress", "repro.nic.pipeline", "NicPipeline.submit_trace"),
    ("nic.ingress", "repro.nic.pipeline", "NicPipeline.ingress_run"),
    ("fluid", "repro.nic.fluid", "FluidLane.burst_arrival"),
    ("fluid", "repro.nic.fluid", "FluidLane.trace_arrival"),
    ("classify", "repro.core.labeling", "LabelingFunction.label"),
    ("classify", "repro.core.flow_cache", "ExactMatchCache.get"),
    ("classify", "repro.core.flow_cache", "ExactMatchCache.put"),
    ("classify", "repro.nic.fluid", "FluidLane._try_fluid_miss"),
    # The NIC app's per-packet handlers run the scheduling function's
    # decide/borrow/update steps inline on the packet paths the fluid
    # lane does not absorb, so those steps are timed through them.
    ("sched", "repro.nic.apps", "FlowValveNicApp.handle"),
    ("sched", "repro.nic.apps", "FlowValveNicApp.handle_fast"),
    ("sched", "repro.core.scheduling", "SchedulingFunction.commit"),
    ("sched", "repro.nic.fluid", "FluidLane._meter_step"),
    ("sched", "repro.nic.fluid", "FluidLane._borrow_try"),
    ("sched", "repro.nic.fluid", "FluidLane._borrow_settle"),
    ("sched", "repro.nic.fluid", "FluidLane._finish_drop"),
    ("tm", "repro.nic.traffic_manager", "TrafficManager.offer"),
    ("tm", "repro.nic.traffic_manager", "TrafficManager.offer_burst"),
    ("tm", "repro.net.link", "Link.send"),
    ("tm", "repro.net.link", "Link.send_batch"),
    ("tm", "repro.nic.fluid", "FluidLane._finish_forward"),
    ("sink", "repro.net.sink", "PacketSink.receive"),
    ("sink", "repro.net.sink", "PacketSink.receive_later"),
    ("sink", "repro.net.sink", "PacketSink._fold"),
    ("sink", "repro.stats.sketch", "QuantileSketch.add"),
    ("sink", "repro.stats.metrics", "MetricsSampler.sample"),
    ("shard", "repro.sim.shard", "route_records"),
    ("shard", "repro.net.boundary", "RemoteIngress.inject"),
    ("shard", "repro.net.boundary", "BoundaryOutbox.drain"),
)

#: Entry points that are generator functions: each resume is one span.
GENERATORS = frozenset(
    {"FixedRateSender._run", "FlowValveNicApp.handle", "FlowValveNicApp.handle_fast"}
)

def resolve(module: str, path: str) -> Tuple[object, str]:
    """The (owner, attribute name) of an entry point; raises
    ``AttributeError`` if a refactor renamed or removed it."""
    owner: object = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not callable(getattr(owner, name)):
        raise AttributeError(f"{module}.{path} is not callable")
    return owner, name


class _TimedGenerator:
    """Drives a generator, timing each resume as one span."""

    __slots__ = ("_gen", "_span")

    def __init__(self, gen, span: Callable):
        self._gen = gen
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._span(self._gen.send, value)

    def throw(self, *exc):
        return self._span(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class Tracer:
    """Per-layer self time and per-entry-point call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Wire records handed to ``RemoteIngress.inject``.
        self.records = 0
        # One accumulator of child-span time per open span; the base
        # slot sums the outermost spans.
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        """Host seconds inside any span (= the sum of layer self times)."""
        return self._stack[0]

    def _span(self, layer: str, path: str) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(fn, *args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - child
                calls[path] += 1

        return span

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for layer, module, path in ENTRY_POINTS:
            owner, name = resolve(module, path)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            span = self._span(layer, path)
            if path in GENERATORS:
                def wrapper(*args, _fn=original, _span=span, **kwargs):
                    return _TimedGenerator(_fn(*args, **kwargs), _span)
            elif path == "RemoteIngress.inject":
                def wrapper(ingress, barrier, records, _fn=original, _span=span):
                    self.records += len(records)
                    return _span(_fn, ingress, barrier, records)
            else:
                def wrapper(*args, _fn=original, _span=span, **kwargs):
                    return _span(_fn, *args, **kwargs)
            functools.update_wrapper(wrapper, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, self_s: Dict[str, float], parts,
                  observables: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run, except the two
    ``trace.*`` ones, which need an untraced run to compare with.

    *self_s* are the layer self times as the run phase ended; *parts*
    the run's ``(sim, nic, sink)`` triples (one per NIC domain);
    *observables* its deterministic outcome.
    """
    submitted = observables["submitted"]
    fluids = [nic._fluid for _sim, nic, _sink in parts if nic._fluid is not None]
    caches = [nic.app.labeler.cache for _sim, nic, _sink in parts]
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    absorbed = sum(lane.absorbed for lane in fluids)
    miss_absorbed = sum(lane.miss_absorbed for lane in fluids)
    self_s = defaultdict(float, self_s)
    return {
        "sim.kernel_self_s": self_s["sim"],
        "sim.events": observables["events"],
        "sim.events_per_pkt": observables["events"] / submitted,
        "host.gen_self_s": self_s["host"],
        "host.flows": observables["flows"],
        # Generation steps: trace windows plus sender train resumes.
        "host.windows": tracer.calls["TraceWorkload._window_step"]
        + tracer.calls["FixedRateSender._run"],
        "nic.ingress_s": self_s["nic.ingress"],
        "fluid.frame_self_s": self_s["fluid"],
        "fluid.ns_per_pkt": self_s["fluid"] / submitted * 1e9,
        "fluid.absorbed_ratio": absorbed / submitted,
        "fluid.spills": sum(lane.spills for lane in fluids),
        "fluid.suspends": sum(lane.suspends for lane in fluids),
        "classify.s": self_s["classify"],
        "emc.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "emc.evictions": sum(cache.evictions for cache in caches),
        "fluid.miss_absorbed_ratio": miss_absorbed / misses if misses else 0.0,
        "sched.s": self_s["sched"],
        "sched.updates": sum(nic.app.scheduler.stats.updates_run for _s, nic, _k in parts),
        "tm.s": self_s["tm"],
        "nic.drops": observables["dropped"],
        "sink.s": self_s["sink"],
        "sink.sketch_bins": sum(
            sink.delay_sketch().bin_count
            for _s, _n, sink in parts
            if sink.stats_mode == "sketch"
        ),
        "shard.exchange_s": self_s["shard"],
        "shard.windows": tracer.calls["route_records"],
        "shard.records": tracer.records,
    }
