"""Workload drivers: demand schedules, TCP applications, CBR senders.

These stand in for the paper's traffic tools — iperf3 (bulk TCP),
the mTCP-based analyser (many TCP connections at line rate), and the
fixed-length full-speed packet injector used for Fig. 13.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from ..net.flow import FiveTuple
from ..net.packet import Packet, PacketFactory
from ..sim.process import At
from .cpu import CpuCore
from .tcp import AimdConnection, TcpParams, TcpRegistry

__all__ = ["DemandSchedule", "windows", "propagate_next_change", "TcpApp", "FixedRateSender"]

#: A demand function: time -> offered bit/s. Schedules built by
#: :func:`windows` additionally carry a ``next_change(t)`` attribute
#: returning the first boundary strictly after *t* (or ``None``), with
#: the contract that the demand is *constant* between boundaries.
DemandSchedule = Callable[[float], float]


def windows(*spans: Tuple[float, float, float]) -> DemandSchedule:
    """Build a piecewise-constant demand from (start, end, rate) spans.

    The returned callable carries a ``next_change(t)`` attribute (see
    :data:`DemandSchedule`) so senders can sleep exactly until the next
    window edge instead of polling.

    >>> d = windows((0, 15, 10e9), (15, 45, 2e9))
    >>> d(10), d(20), d(50)
    (10000000000.0, 2000000000.0, 0.0)
    >>> d.next_change(10), d.next_change(45)
    (15, None)
    """

    def demand(t: float) -> float:
        for start, end, rate in spans:
            if start <= t < end:
                return rate
        return 0.0

    boundaries = sorted({edge for start, end, _rate in spans for edge in (start, end)})

    def next_change(t: float) -> Optional[float]:
        index = bisect_right(boundaries, t)
        return boundaries[index] if index < len(boundaries) else None

    demand.next_change = next_change  # type: ignore[attr-defined]
    return demand


def propagate_next_change(derived: DemandSchedule, source: DemandSchedule) -> DemandSchedule:
    """Copy ``next_change`` from *source* onto *derived*, if present.

    For wrappers that rescale a schedule pointwise (demand splitting,
    scale-factor division): the boundaries — and the constant-between-
    boundaries contract — are unchanged by a pointwise transform.
    """
    next_change = getattr(source, "next_change", None)
    if next_change is not None:
        derived.next_change = next_change  # type: ignore[attr-defined]
    return derived


class TcpApp:
    """One application: a bundle of AIMD connections sharing a demand.

    Mirrors the paper's per-app setup — "each process runs on a
    separated CPU core and sends traffic to the SmartNIC from an
    isolated virtual function" — with 1..256 TCP connections per app
    (§V-A). The app demand is split evenly across its connections.

    Parameters
    ----------
    submit: where packets go — a NIC pipeline's ``submit`` or a
        software scheduler's ``enqueue``.
    send_cost_cycles: host cycles charged to the app's core per packet
        (driver/syscall cost of the chosen I/O stack).
    """

    def __init__(
        self,
        sim,
        name: str,
        registry: TcpRegistry,
        factory: PacketFactory,
        submit: Callable[[Packet], bool],
        n_connections: int = 1,
        demand: Optional[DemandSchedule] = None,
        tcp_params: Optional[TcpParams] = None,
        vf_index: int = 0,
        cpu: Optional[CpuCore] = None,
        send_cost_cycles: float = 500.0,
        cpu_freq_hz: float = 2.3e9,
        dst_ip: str = "10.0.1.1",
    ):
        self.sim = sim
        self.name = name
        self.demand = demand
        self.connections: List[AimdConnection] = []
        per_conn_demand = None
        if demand is not None:
            per_conn_demand = self._split_demand(demand, n_connections)
        send_cost_seconds = send_cost_cycles / cpu_freq_hz

        def on_send_cost(size: int, _cpu=cpu, _cost=send_cost_seconds) -> None:
            if _cpu is not None:
                _cpu.charge(f"app:{name}", _cost)

        for index in range(n_connections):
            conn_id = registry.new_id()
            flow = FiveTuple(f"10.{vf_index}.0.{index + 1}", dst_ip, 40000 + index, 5001)
            conn = AimdConnection(
                sim,
                conn_id,
                flow,
                app=name,
                factory=factory,
                submit=submit,
                params=tcp_params,
                demand=per_conn_demand,
                vf_index=vf_index,
                on_send_cost=on_send_cost if cpu is not None else None,
            )
            registry.register(conn)
            self.connections.append(conn)

    @staticmethod
    def _split_demand(demand: DemandSchedule, n: int) -> DemandSchedule:
        return propagate_next_change(lambda t: demand(t) / n, demand)

    # ------------------------------------------------------------------
    @property
    def sent_packets(self) -> int:
        return sum(c.sent_packets for c in self.connections)

    @property
    def lost_packets(self) -> int:
        return sum(c.lost_packets for c in self.connections)


class FixedRateSender:
    """A constant-bit-rate packet injector (the Fig. 13/14 stressor).

    Sends fixed-size packets at a fixed rate regardless of feedback —
    the "inject fixed-length packets at full speed" methodology. An
    optional demand schedule gates it on/off.
    """

    def __init__(
        self,
        sim,
        name: str,
        factory: PacketFactory,
        submit: Callable[[Packet], bool],
        rate_bps: float,
        packet_size: int = 1518,
        demand: Optional[DemandSchedule] = None,
        vf_index: int = 0,
        flow: Optional[FiveTuple] = None,
        cpu: Optional[CpuCore] = None,
        send_cost_seconds: float = 0.0,
        jitter: float = 0.0,
        rng=None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        self.sim = sim
        self.name = name
        self.factory = factory
        self.submit = submit
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.demand = demand
        self.vf_index = vf_index
        self.flow = flow if flow is not None else FiveTuple(
            f"10.{vf_index}.1.1", "10.0.1.1", 40000, 5001
        )
        self.cpu = cpu
        self.send_cost_seconds = send_cost_seconds
        self.jitter = jitter
        self.rng = rng
        self._sent = 0
        self._burst_folded = 0
        self._bursts: List = []
        self._process = sim.process(self._run())

    @property
    def sent_packets(self) -> int:
        """Packets emitted up to the current simulation time.

        In burst-ingress mode emission instants are precomputed and
        handed to the pipeline as run-lane trains; emissions whose
        instant has passed count as sent even when their arrival
        callback has not executed yet (lazy, like the sink tallies).
        """
        bursts = self._bursts
        if bursts:
            now = self.sim._now
            folded = self._burst_folded
            live = []
            n_live = 0
            for rec in bursts:
                if rec.settled(now):
                    folded += rec.count_at(now)
                else:
                    live.append(rec)
                    n_live += rec.count_at(now)
            self._burst_folded = folded
            self._bursts = live
            return self._sent + folded + n_live
        return self._sent + self._burst_folded

    def _run(self):
        # One loop iteration per injected packet (or per burst) — keep
        # the per-packet state in locals instead of `self.` lookups.
        sim = self.sim
        make = self.factory.make
        submit = self.submit
        demand = self.demand
        rate_bps = self.rate_bps
        packet_size = self.packet_size
        size_bits = packet_size * 8.0
        base_interval = size_bits / rate_bps
        idle_interval = 10 * base_interval
        flow = self.flow
        name = self.name
        vf_index = self.vf_index
        cpu = self.cpu
        send_cost = self.send_cost_seconds
        cpu_tag = f"app:{name}"
        jitter = self.jitter
        uniform = self.rng.uniform if (jitter > 0 and self.rng is not None) else None
        next_change = getattr(demand, "next_change", None) if demand is not None else None
        # Burst ingress: precompute the next K emission instants with
        # the exact float-op and RNG-draw order of the per-packet loop
        # and hand them to the pipeline as a single run-lane train.
        # Engages only when the target is a burst-capable pipeline, no
        # host CPU cost is modelled, and the demand schedule (if any)
        # exposes its boundaries (constant between them).
        owner = getattr(submit, "__self__", None)
        burst_max = getattr(owner, "ingress_burst", 0) if owner is not None else 0
        submit_burst = owner.submit_burst if burst_max > 0 else None
        if (cpu is not None and send_cost > 0) or (demand is not None and next_change is None):
            submit_burst = None
        while True:
            effective_rate = rate_bps
            if demand is not None:
                demanded = demand(sim.now)
                if demanded <= 0:
                    if next_change is not None:
                        # Sleep exactly until the next demand boundary
                        # instead of polling on a 10x-interval grid (a
                        # poll-grid wake can land up to 10 intervals
                        # after a window opens).
                        boundary = next_change(sim.now)
                        if boundary is None:
                            return  # demand never reopens
                        yield At(boundary)
                    else:
                        yield idle_interval
                    continue
                effective_rate = min(rate_bps, demanded)
            interval = size_bits / effective_rate
            if submit_burst is not None:
                end = next_change(sim.now) if demand is not None else None
                # Emissions past the current run horizon must not be
                # precomputed: per-packet mode draws each gap's jitter
                # *at* the emission, so a train crossing the horizon
                # would advance the RNG past draws the per-packet world
                # never makes (events at exactly the horizon still run).
                horizon = sim._horizon
                t = sim._now
                times: List[float] = []
                append = times.append
                while len(times) < burst_max and (end is None or t < end) and t <= horizon:
                    append(t)
                    gap = interval
                    if uniform is not None:
                        gap *= 1.0 + uniform(-jitter, jitter)
                    t = t + gap
                self._bursts.append(
                    submit_burst(make, times, packet_size, flow, name, vf_index)
                )
                yield At(t)
                continue
            packet = make(packet_size, flow, sim.now, app=name, vf_index=vf_index)
            if cpu is not None and send_cost > 0:
                cpu.charge(cpu_tag, send_cost)
            self._sent += 1
            submit(packet)
            gap = interval
            if uniform is not None:
                gap *= 1.0 + uniform(-jitter, jitter)
            yield gap
