"""Span coverage of the traced run.

Every wrapped entry point must still exist, and each must record calls
on the workloads expected to exercise it, so a refactor that renames or
merges one fails here instead of reading zero in the per-layer metrics.
The traced run must also reproduce the pinned untraced outcome.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent)]

from perfbench import spans, workloads  # noqa: E402

#: Spans of the fluid lane's analytic frame, shared by every workload
#: that runs it.
_FLUID_FRAME = {
    "Simulator.run", "EventQueue.merge_run", "NicPipeline.ingress_run",
    "FlowValveNicApp.handle_fast", "LabelingFunction.label",
    "ExactMatchCache.get", "ExactMatchCache.put", "FluidLane._meter_step",
    "FluidLane._finish_drop", "FluidLane._finish_forward",
    "SchedulingFunction.commit", "TrafficManager.offer", "Link.send",
}

#: Entry points each workload must call at least once.
EXPECTED = {
    "motivation": _FLUID_FRAME | {
        "FixedRateSender._run", "NicPipeline.submit_burst",
        "FluidLane.burst_arrival", "FluidLane._borrow_try",
        "FluidLane._borrow_settle", "TrafficManager.offer_burst",
        "Link.send_batch", "PacketSink.receive_later",
    },
    "megaflow": _FLUID_FRAME | {
        "TraceWorkload._window_step", "NicPipeline.submit_trace",
        "FluidLane.trace_arrival", "FluidLane._try_fluid_miss",
        "FluidLane._borrow_try", "FluidLane._borrow_settle",
        "TrafficManager.offer_burst", "Link.send_batch",
        "PacketSink.receive_later", "PacketSink._fold", "QuantileSketch.add",
    },
    "fabric": _FLUID_FRAME | {
        "FixedRateSender._run", "NicPipeline.submit_burst",
        "FluidLane.burst_arrival", "route_records", "RemoteIngress.inject",
        "BoundaryOutbox.drain", "PacketSink.receive", "PacketSink._fold",
    },
    "motivation_observed": {
        "Simulator.run", "FixedRateSender._run", "NicPipeline.submit",
        "FlowValveNicApp.handle", "LabelingFunction.label",
        "ExactMatchCache.get", "ExactMatchCache.put",
        "SchedulingFunction.commit", "Link.send", "PacketSink.receive",
        "PacketSink._fold", "MetricsSampler.sample",
    },
}


@pytest.mark.parametrize("entry", spans.ENTRY_POINTS, ids=lambda e: e[2])
def test_entry_point_exists(entry):
    _layer, module, path = entry
    spans.resolve(module, path)


def test_every_entry_point_is_expected_somewhere():
    wrapped = {path for _layer, _module, path in spans.ENTRY_POINTS}
    assert wrapped == set().union(*EXPECTED.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_records_every_expected_span(workload):
    pinned = json.loads((BENCH / "pinned.json").read_text())[workload]["7"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        prepared = workloads.build(workload, 7, inline=True)
        prepared.run()
    finally:
        tracer.uninstall()
    silent = sorted(path for path in EXPECTED[workload] if tracer.calls[path] == 0)
    assert not silent, f"{workload}: no calls recorded on {silent}"
    assert prepared.observables() == pinned
    # Layer self times partition the time inside spans.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)
