"""Ablations of FlowValve's design decisions (DESIGN.md §5).

* A-LOCK — Fig. 7: what the update-locking discipline costs. The same
  pipeline runs with FlowValve's per-class *try-lock* (losers skip),
  blocking per-class locks (Fig. 7c), one global tree lock, and a
  fully serialised scheduling function (Fig. 7b). Throughput at 64 B
  shows why "simply running a scheduling function on each core is not
  enough".
* A-DELAY — Fig. 10: token-rate propagation delay down a priority
  chain. A step change in the top class's rate takes one update epoch
  per tree level to reach the bottom class.
* A-INTERVAL — rate conformance vs the update interval ΔT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..core import FlowValve, FlowValveFrontend
from ..core.scheduling import Verdict
from ..core.sched_tree import SchedulingParams
from ..net import FiveTuple, PacketFactory, PacketSink
from ..nic import NicConfig, NicPipeline
from ..host import FixedRateSender
from ..sim import Simulator
from ..stats.report import Table
from ..tc.parser import parse_script
from .base import ScaledSetup
from .policies import fair_policy

__all__ = [
    "LockModeResult",
    "LockAblationResult",
    "lock_modes",
    "PropagationResult",
    "PropagationDelayResult",
    "propagation",
    "IntervalSensitivityResult",
    "interval_sensitivity",
]


# ----------------------------------------------------------------------
# A-LOCK
# ----------------------------------------------------------------------
@dataclass
class LockModeResult:
    """Throughput of one locking discipline at 64 B saturation."""

    lock_mode: str
    mpps: float
    lock_wait_seconds: float


@dataclass
class LockAblationResult:
    """The measured A-LOCK ablation (unified-API wrapper)."""

    results: List[LockModeResult]

    def to_table(self) -> Table:
        table = Table(
            "A-LOCK — 64 B forwarding capacity per update-locking discipline (Fig. 7)",
            ["lock mode", "Mpps", "lock wait (s)"],
        )
        for r in self.results:
            table.add_row(r.lock_mode, r.mpps, f"{r.lock_wait_seconds:.4f}")
        return table


def lock_modes(
    setup: Optional[ScaledSetup] = None,
    *,
    modes: Optional[List[str]] = None,
    window: float = 0.002,
    packet_size: int = 64,
) -> LockAblationResult:
    """Measure 64 B forwarding capacity per locking discipline.

    Capacity runs execute at full modelled rates; only ``setup.seed``
    is consumed.
    """
    seed = setup.seed if setup is not None else 23
    modes = modes if modes is not None else [
        "trylock", "per_class_block", "global_block", "sequential",
    ]
    results: List[LockModeResult] = []
    for mode in modes:
        sim = Simulator(seed=seed)
        params = SchedulingParams(update_interval=0.0005, expire_after=0.005)
        frontend = FlowValveFrontend(
            fair_policy(40e9, 4), link_rate_bps=40e9, params=params
        )
        cfg = replace(NicConfig(), lock_mode=mode)
        sink = PacketSink(sim, rate_window=window, record_delays=False)
        nic = NicPipeline.with_flowvalve(sim, cfg, frontend, receiver=sink.receive)
        factory = PacketFactory()
        per_app = 10e6 * packet_size * 8  # 40 Mpps aggregate offered
        for i in range(4):
            FixedRateSender(
                sim, f"App{i}", factory, nic.submit, rate_bps=per_app,
                packet_size=packet_size, vf_index=i, jitter=0.05,
                rng=sim.random.stream(f"App{i}"),
            )
        warmup = 0.2 * window
        counts = {}
        sim.schedule_at(warmup, lambda: counts.update(at_warmup=sink.total_packets))
        sim.run(until=warmup + window)
        mpps = (sink.total_packets - counts["at_warmup"]) / window / 1e6
        results.append(LockModeResult(mode, round(mpps, 2), round(nic.app.lock_contention, 6)))
    return LockAblationResult(results=results)


# ----------------------------------------------------------------------
# A-DELAY
# ----------------------------------------------------------------------
@dataclass
class PropagationResult:
    """Convergence time of one class after the step change."""

    classid: str
    depth: int
    settle_seconds: float
    settle_epochs: float


@dataclass
class PropagationDelayResult:
    """The measured A-DELAY propagation chain (unified-API wrapper)."""

    results: List[PropagationResult]
    update_interval: float = 0.01

    def to_table(self) -> Table:
        table = Table(
            "A-DELAY — token-rate propagation down a priority chain (Fig. 10)",
            ["classid", "depth", "settle (s)", "settle (epochs)"],
        )
        for r in self.results:
            table.add_row(r.classid, r.depth, f"{r.settle_seconds:.4f}", r.settle_epochs)
        return table


def propagation(
    setup: Optional[ScaledSetup] = None,
    *,
    update_interval: float = 0.01,
    levels: int = 3,
) -> PropagationDelayResult:
    """Fig. 10's analysis, measured.

    Build a priority chain A0 ≻ A1 ≻ A2 (each level one deeper in the
    tree), run A0 at a high rate, then step A0 down at T and record
    when each lower class's θ settles within 5% of its new value.
    Software mode (no NIC costs) — this isolates the algorithm's
    propagation dynamics; the deterministic drive loop consumes no
    randomness, so ``setup`` is accepted only for API uniformity.
    """
    del setup  # software-mode and seedless; kept for the unified signature
    link = 10e6
    script_lines = [
        "fv qdisc add dev eth0 root handle 1: fv default 0",
        f"fv class add dev eth0 parent 1: classid 1:1 fv rate {link:.0f} ceil {link:.0f}",
    ]
    parent = "1:1"
    leaf_ids: List[str] = []
    for level in range(levels):
        leaf = f"1:{0x10 + level:x}"
        leaf_ids.append(leaf)
        script_lines.append(
            f"fv class add dev eth0 parent {parent} classid {leaf} fv prio 0 rate {link:.0f}"
        )
        if level < levels - 1:
            interior = f"1:{0x2 + level:x}"
            script_lines.append(
                f"fv class add dev eth0 parent {parent} classid {interior} fv prio 1 rate {link:.0f}"
            )
            parent = interior
    for level, leaf in enumerate(leaf_ids):
        script_lines.append(
            f"fv filter add dev eth0 parent 1: match app=A{level} flowid {leaf}"
        )
    params = SchedulingParams(
        update_interval=update_interval,
        expire_after=20 * update_interval,
    )
    valve = FlowValve(parse_script("\n".join(script_lines)), link_rate_bps=link, params=params)

    factory = PacketFactory()
    flows = {f"A{i}": FiveTuple(f"10.0.0.{i}", "10.0.1.1", 1, 80) for i in range(levels)}
    size = 1250
    bits = (size + 20) * 8
    step_at = 2.0
    high, low = 0.8 * link, 0.1 * link

    def offered(app: str, t: float) -> float:
        if app == "A0":
            return high if t < step_at else low
        if app == f"A{levels - 1}":
            return 2 * link  # the bottom class is always hungry
        return 0.3 * link  # middle classes have fixed moderate demand

    # Event-driven drive loop.
    import heapq

    heap = [(0.0, app) for app in flows]
    heapq.heapify(heap)
    horizon = step_at + 100 * update_interval
    theta_trace: Dict[str, List] = {leaf: [] for leaf in leaf_ids}
    while heap:
        t, app = heapq.heappop(heap)
        if t >= horizon:
            break
        rate = offered(app, t)
        packet = factory.make(size, flows[app], t, app=app)
        valve.process(packet, t)
        for leaf in leaf_ids:
            theta_trace[leaf].append((t, valve.tree.node(leaf).theta))
        heapq.heappush(heap, (t + bits / rate, app))

    results: List[PropagationResult] = []
    for level, leaf in enumerate(leaf_ids):
        if level == 0:
            continue  # the stepped class itself
        final_theta = theta_trace[leaf][-1][1]
        settle = horizon
        # Last time θ was outside 5% of its final value.
        for t, theta in reversed(theta_trace[leaf]):
            if t < step_at:
                break
            if abs(theta - final_theta) > 0.10 * max(final_theta, 1.0):
                settle = t
                break
        else:
            settle = step_at
        settle_delay = max(0.0, settle - step_at)
        node = valve.tree.node(leaf)
        results.append(PropagationResult(
            classid=leaf,
            depth=node.depth,
            settle_seconds=round(settle_delay, 4),
            settle_epochs=round(settle_delay / update_interval, 2),
        ))
    return PropagationDelayResult(results=results, update_interval=update_interval)


# ----------------------------------------------------------------------
# A-INTERVAL
# ----------------------------------------------------------------------
@dataclass
class IntervalSensitivityResult:
    """The measured A-INTERVAL sweep (unified-API wrapper).

    ``overshoot`` maps ΔT → ``{"epoch": o, "continuous": o}`` where o
    is the worst-0.5s-window overshoot relative to the target rate.
    """

    overshoot: Dict[float, Dict[str, float]]

    def to_table(self) -> Table:
        table = Table(
            "A-INTERVAL — worst-window overshoot vs update interval ΔT",
            ["ΔT (s)", "epoch refill", "continuous refill"],
        )
        for interval in sorted(self.overshoot):
            row = self.overshoot[interval]
            table.add_row(interval, f"{row['epoch']:+.1%}", f"{row['continuous']:+.1%}")
        return table


def interval_sensitivity(
    setup: Optional[ScaledSetup] = None,
    *,
    intervals: Optional[List[float]] = None,
    target_bps: float = 4e6,
    duration: float = 30.0,
) -> IntervalSensitivityResult:
    """Short-window rate conformance vs the update interval ΔT.

    Long-run conformance is exact in both refill modes; what ΔT
    controls is *burstiness*: with the paper's literal epoch-granted
    refill (Fig. 8's "supplement token number = ΔT × θ"), a whole
    epoch's tokens land at once, so the worst 0.5 s window can carry
    far more than the configured rate. The hardware-meter model
    (continuous refill) is flat in ΔT.

    Returns ``{ΔT: {"epoch": overshoot, "continuous": overshoot}}``
    where overshoot = (worst-window rate − target)/target under 2×
    constant overload. Software-mode and deterministic, so ``setup``
    is accepted only for API uniformity.
    """
    del setup  # software-mode and seedless; kept for the unified signature
    intervals = intervals if intervals is not None else [0.01, 0.05, 0.1, 0.5, 1.0]
    script = f"""
    fv qdisc add dev eth0 root handle 1: fv default 0
    fv class add dev eth0 parent 1: classid 1:1 fv rate 10000000 ceil 10000000
    fv class add dev eth0 parent 1:1 classid 1:10 fv rate {target_bps:.0f} ceil {target_bps:.0f}
    fv filter add dev eth0 parent 1: match app=A flowid 1:10
    """
    size = 1250
    bits = (size + 20) * 8
    window = 0.5
    results: Dict[float, Dict[str, float]] = {}
    for interval in intervals:
        row: Dict[str, float] = {}
        for mode, continuous in (("continuous", True), ("epoch", False)):
            params = SchedulingParams(
                update_interval=interval,
                expire_after=20 * interval,
                continuous_refill=continuous,
            )
            valve = FlowValve(parse_script(script), link_rate_bps=10e6, params=params)
            factory = PacketFactory()
            flow = FiveTuple("10.0.0.1", "10.0.1.1", 1, 80)
            bins: Dict[int, float] = {}
            t = 0.0
            gap = bits / (2 * target_bps)
            while t < duration:
                packet = factory.make(size, flow, t, app="A")
                if valve.process(packet, t) is Verdict.FORWARD:
                    index = int(t / window)
                    bins[index] = bins.get(index, 0.0) + bits
                t += gap
            worst = max(bins.values()) / window if bins else 0.0
            row[mode] = round(max(0.0, worst - target_bps) / target_bps, 4)
        results[interval] = row
    return IntervalSensitivityResult(overshoot=results)
