"""The kernel's garbage-collector policy (DESIGN.md §7).

``Simulator.run`` suspends the cyclic collector for its loop and puts
it back as it found it. That is only sound while simulations create no
reference cycles per event: with collection off, a cycle formed per
packet would grow memory for the whole run. The guard tests below run
each engine with collection suspended and assert that a full
collection afterwards finds no cyclic garbage, so such a cycle fails
here instead of going unnoticed.
"""

import gc
from dataclasses import replace
from functools import partial

import pytest

from repro.core import FlowValveFrontend
from repro.experiments import fabric, hotpath, megaflow
from repro.experiments.policies import motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.host import TcpApp, TcpParams, TcpRegistry, windows
from repro.net import PacketFactory, PacketSink
from repro.nic import NicPipeline
from repro.sim import Simulator
from repro.topology import SimulationSpec, Topology
from repro.topology import build as topology_build


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestRunRestoresCollector:
    def _probe_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        return seen

    def test_enabled_before_run_is_enabled_after(self, gc_state):
        gc.enable()
        assert self._probe_run() == [False]  # suspended inside the loop
        assert gc.isenabled()

    def test_disabled_before_run_stays_disabled(self, gc_state):
        gc.disable()
        assert self._probe_run() == [False]
        assert not gc.isenabled()

    def test_restored_when_a_handler_raises(self, gc_state):
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert gc.isenabled()


# ----------------------------------------------------------------------
# the no-cycle guard
# ----------------------------------------------------------------------
# Each case builds its simulation and returns the call that runs it.
# The invariant is about events, so the guard collects once after the
# build (a one-off cycle made by tc compile or the frontend is
# harmless) and suspends collection only for the run.
def _hotpath():
    sim, nic = hotpath.build(hotpath.DEFAULT_SETUP)
    return partial(sim.run, until=2.0)


def _hotpath_observed():
    """The hotpath inputs with the metrics sampler on, built as
    ``fv simulate --metrics`` builds them: the reference per-packet
    path, which executes the most events per packet."""
    setup = hotpath.DEFAULT_SETUP
    topo = Topology()
    topo.nic("nic0", policy=motivation_policy(setup.link_bps))
    topo.host("host0", nic="nic0")
    for app, demand in sorted(motivation_demands(setup.nominal_link_bps).items()):
        topo.app("host0", app, demand=demand)
    spec = SimulationSpec(
        topology=topo,
        setup=setup,
        duration=2.0,
        metrics_path="metrics.jsonl",  # enables the sampler; nothing is written
        metrics_interval=0.02,
    )
    [built] = topology_build.build_domains(spec, [0])
    assert built.sampler is not None
    return partial(built.sim.run, until=spec.duration)


def _megaflow(seed, mode="batched", duration=0.05):
    setup = replace(megaflow.DEFAULT_SETUP, seed=seed)
    sim, nic, sink, workloads = megaflow.build(setup, duration=duration, mode=mode)
    return partial(sim.run, until=duration * setup.scale * 1.02)


def _tcp():
    """Ack-clocked TCP apps through the NIC: the per-packet engine with
    generator processes, delivery hooks and a drop callback."""
    setup = hotpath.DEFAULT_SETUP
    sim = Simulator(seed=3)
    frontend = FlowValveFrontend(
        motivation_policy(setup.link_bps),
        link_rate_bps=setup.link_bps,
        params=setup.sched_params(),
    )
    registry = TcpRegistry(sim)
    sink = PacketSink(
        sim, rate_window=1.0, record_delays=False,
        on_delivery=registry.handle_delivery,
    )
    nic = NicPipeline.with_flowvalve(
        sim, setup.nic_config(), frontend,
        receiver=sink.receive, on_drop=registry.handle_drop,
    )
    factory = PacketFactory()
    for index, app in enumerate(("NC", "WS", "KVS", "ML")):
        TcpApp(
            sim, app, registry, factory, nic.submit,
            demand=windows((0, 2.0, 100 * setup.link_bps)),
            tcp_params=TcpParams(base_rtt=100e-6 * setup.scale),
            vf_index=index,
        )

    def run():
        sim.run(until=2.0)
        assert sink.total_packets > 0

    return run


def _inline_shards():
    """A 4-host ring on the sharded engine's inline mode: window
    barriers, boundary outboxes and remote ingress trains.
    ``SimulationSpec.run`` builds the domains itself, so the build step
    is hooked: it keeps the domains alive (only garbage should be
    collected) and collects once before the barrier loop starts."""
    domains = []
    build_domains = topology_build.build_domains

    def build_then_collect(*args, **kwargs):
        built = build_domains(*args, **kwargs)
        domains.extend(built)
        gc.collect()
        return built

    spec = SimulationSpec(
        topology=fabric.build_fabric(fabric.DEFAULT_SETUP, hosts=4),
        setup=fabric.DEFAULT_SETUP,
        duration=0.5,
        shards=1,
    )

    def run():
        topology_build.build_domains = build_then_collect
        try:
            result = spec.run()
        finally:
            topology_build.build_domains = build_domains
        assert domains and result.total_packets > 0

    return run


@pytest.mark.parametrize(
    "build",
    [
        _hotpath,
        _hotpath_observed,
        partial(_megaflow, 7),
        partial(_megaflow, 2024),
        partial(_megaflow, 7, mode="process", duration=0.01),
        _tcp,
        _inline_shards,
    ],
    ids=[
        "hotpath", "hotpath-metrics", "megaflow-7", "megaflow-2024",
        "megaflow-process", "tcp", "inline-shards",
    ],
)
def test_simulation_leaves_no_cyclic_garbage(build, gc_state):
    run = build()  # everything stays reachable through run's closure
    gc.collect()
    gc.disable()
    run()
    found = gc.collect()
    assert found == 0, (
        f"{found} objects were only reachable through reference cycles: "
        "a per-event cycle leaks while Simulator.run suspends the collector"
    )
