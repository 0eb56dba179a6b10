"""E-PERF — the hot-path microbenchmark workload, as an experiment.

One canonical builder for the Fig. 11(a) motivation workload used to
measure DES-kernel throughput, shared by
``benchmarks/test_bench_hotpath.py`` (which adds the deterministic
event/packet-count guards and persists ``BENCH_hotpath.json``) and the
campaign registry (``fv campaign run hotpath``), so the BENCH json
emission and the campaign manifest both measure the *same* assembly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core import FlowValveFrontend
from ..host import FixedRateSender
from ..net import PacketFactory, PacketSink
from ..nic import NicPipeline
from ..sim import Simulator
from ..stats.perf import HotpathResult, measure_run
from .base import ScaledSetup, _scale_demand
from .policies import motivation_policy
from .workloads import motivation_demands

__all__ = [
    "DEFAULT_SETUP",
    "DEFAULT_DURATION",
    "SEED_EVENTS",
    "SEED_PACKETS",
    "SEED_PKT_PER_SEC",
    "build",
    "run",
]

#: The reference configuration every recorded hotpath number uses.
DEFAULT_SETUP = ScaledSetup(nominal_link_bps=10e9, scale=200.0, wire_bps=10e9)

#: Simulated horizon of the canonical benchmark run.
DEFAULT_DURATION = 20.0

#: v0 seed-code reference on this workload (commit c37e241, measured
#: interleaved with the optimized build on the same host): the seed
#: executed 2,887,785 kernel events for the same 179,154 packets
#: (16.1 ev/pkt) in ~9.4-11.8 s wall (~17.5k pkt/s). The hot-path
#: bench records its vs-seed ratios in ``BENCH_hotpath.json``.
SEED_EVENTS = 2_887_785
SEED_PACKETS = 179_154
SEED_PKT_PER_SEC = 17_500.0


def build(
    setup: Optional[ScaledSetup] = None, *, fluid: Optional[bool] = None
) -> Tuple[Simulator, NicPipeline]:
    """Assemble the Fig. 11(a) motivation workload on the DES pipeline.

    Construction order (senders sorted by app name, one rng stream per
    app) is part of the measured contract: the bench asserts exact
    event counts for the default seed. *fluid* overrides the NIC
    config's fluid-lane flag (None keeps the config default) — the
    equivalence suite and the CI smoke run both lanes on this builder.
    """
    setup = setup if setup is not None else DEFAULT_SETUP
    policy = motivation_policy(setup.link_bps)
    demands = motivation_demands(setup.nominal_link_bps)
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        policy, link_rate_bps=setup.link_bps, params=setup.sched_params()
    )
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    overrides = {} if fluid is None else {"fluid": fluid}
    nic = NicPipeline.with_flowvalve(
        sim, setup.nic_config(**overrides), frontend, receiver=sink.receive
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
            demand=_scale_demand(demand, setup.scale),
            vf_index=index,
            jitter=0.1,
            rng=sim.random.stream(app),
        )
    return sim, nic


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    duration: float = 20.0,
    fluid: Optional[bool] = None,
) -> HotpathResult:
    """Measure events/sec and packets/sec of the reference workload."""
    setup = setup if setup is not None else DEFAULT_SETUP
    sim, nic = build(setup, fluid=fluid)
    return measure_run(
        sim,
        lambda: sim.run(until=duration),
        lambda: nic.submitted,
        label=f"fig11a-scale{setup.scale:g}-{duration:g}s",
    )
