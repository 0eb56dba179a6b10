"""Synthetic data-center workload generation.

The paper motivates FlowValve with multi-tenant data-center servers:
key-value stores (many small RPCs), ML services (large transfers), web
servers (mixed). This module generates that traffic shape without
proprietary traces: flows arrive as a Poisson process and draw their
sizes from a heavy-tailed (bounded-Pareto) distribution — the standard
synthetic stand-in for published DC traffic studies. Each flow is sent
as a paced packet train through any ``submit`` target (the NIC, a
kernel runtime, ...).

Two generation engines share one statistical model (DESIGN.md §12):

* ``mode="process"`` — the reference engine: one simulation process
  per flow, one event per packet. Simple, and the semantic yardstick,
  but a million flows would mean a million generator frames.
* ``mode="batched"`` (default) — the trace engine: a single windowed
  process pre-draws every flow arrival and emission instant for the
  next horizon window with the *exact* RNG-draw and float-op order of
  the per-flow engine, then hands the whole window to the target as
  one pre-merged train (``NicPipeline.submit_trace``) or one run-lane
  train. Packet streams are bit-identical between the engines; only
  kernel-event counts differ. The flow and byte tallies are folded
  lazily from per-window ledgers, so observation memory stays at one
  window regardless of flow count.

Both engines mint a flow's five-tuple the same way, without a random
draw. Each source host ``10.<vf>.<hi>.<lo>`` opens 16,384 consecutive
flows, one per IANA ephemeral port (49152-65535), so a block of flows
shares one address string and every workload shares one tuple of port
ints: a flow retains its five-tuple and nothing else.

Presets (:data:`WORKLOAD_PRESETS`) give the three motivating app types
distinct mixes; :class:`TraceWorkload` drives one app's flow process.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..net.flow import PROTO_TCP, FiveTuple
from ..net.packet import Packet, PacketFactory
from ..sim.events import TrainCursor

__all__ = ["WorkloadProfile", "TraceWorkload", "WORKLOAD_PRESETS"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical shape of one application's traffic.

    Attributes
    ----------
    mean_flow_bytes: average flow size (the bounded-Pareto mean is
        matched to this).
    min_flow_bytes / max_flow_bytes: Pareto bounds.
    pareto_alpha: tail index (1.1-1.3 ≈ published DC distributions;
        smaller = heavier tail).
    packet_size: MTU-sized payload packets (the last packet of a flow
        is the remainder).
    flow_rate_limit_bps: pacing per flow (a flow never sends faster
        than this — RPC responses stream at service speed, not line
        rate).
    """

    mean_flow_bytes: float = 100_000.0
    min_flow_bytes: float = 1_000.0
    max_flow_bytes: float = 100_000_000.0
    pareto_alpha: float = 1.2
    packet_size: int = 1500
    flow_rate_limit_bps: float = 5e9


#: The motivating app types (§II): KVS = many small RPCs, ML = few
#: huge transfers, WS = mixed web objects.
WORKLOAD_PRESETS: Dict[str, WorkloadProfile] = {
    "kvs": WorkloadProfile(
        mean_flow_bytes=8_000.0, min_flow_bytes=256.0, max_flow_bytes=200_000.0,
        pareto_alpha=1.3, flow_rate_limit_bps=2e9,
    ),
    "ml": WorkloadProfile(
        mean_flow_bytes=20_000_000.0, min_flow_bytes=1_000_000.0,
        max_flow_bytes=1_000_000_000.0, pareto_alpha=1.1, flow_rate_limit_bps=10e9,
    ),
    "web": WorkloadProfile(
        mean_flow_bytes=100_000.0, min_flow_bytes=1_000.0, max_flow_bytes=20_000_000.0,
        pareto_alpha=1.2, flow_rate_limit_bps=5e9,
    ),
}


class _WindowLedger:
    """Lazy flow/byte tallies for one generated window.

    The batched engine submits a window's emissions before their
    instants pass, so eager counters would run ahead of the clock.
    Instead each window keeps sorted instant arrays and an inclusive
    payload prefix sum; observers bisect against ``sim.now`` and fully
    elapsed ledgers fold into scalar bases and are dropped — constant
    observation memory in the flow count. Every column is a typed
    array (``array('d')`` instants, ``array('q')`` sums): eight bytes
    an entry rather than a float or int object each. ``times`` is the
    same array the window's ingress train reads.
    """

    __slots__ = ("times", "payload_cum", "starts", "ends", "last")

    def __init__(
        self,
        times: Sequence[float],
        payload_cum: Sequence[int],
        starts: Sequence[float],
        ends: Sequence[float],
    ):
        self.times = times
        self.payload_cum = payload_cum
        self.starts = starts
        self.ends = ends
        last = times[-1] if times else float("-inf")
        if starts and starts[-1] > last:
            last = starts[-1]
        if ends and ends[-1] > last:
            last = ends[-1]
        self.last = last


#: Largest emission chain computed at once (bounds the transient chunk
#: an in-window elephant flow allocates).
_MAX_CHAIN = 1 << 20

#: The IANA ephemeral ports (RFC 6335, 49152-65535) as one tuple of
#: ints that every trace workload's five-tuples share: a source host
#: opens one flow per port. The first mint builds it, not the import:
#: the fabric and the CLI import this module but mint no trace flow.
_port_ints: Tuple[int, ...] = ()


class TraceWorkload:
    """Poisson flow arrivals with bounded-Pareto sizes for one app.

    Parameters
    ----------
    sim: the shared simulator.
    app: app name stamped on packets (classification key).
    profile: statistical shape.
    offered_load_bps: long-run average offered rate; sets the Poisson
        flow arrival rate to ``offered / mean_flow_bytes``.
    submit: packet sink (NIC submit, runtime enqueue, ...).
    factory: shared packet factory.
    vf_index: virtual function the app sends through.
    duration: stop generating new flows after this time (existing
        flows finish).
    mode: ``"batched"`` (windowed trace engine, the default) or
        ``"process"`` (one process per flow — the reference engine).
        Packet streams are bit-identical; see the module docstring.
    window: batched-engine horizon window in seconds. Defaults to
        ~64 Ki emission instants' worth at the offered load.
    """

    def __init__(
        self,
        sim,
        app: str,
        profile: WorkloadProfile,
        offered_load_bps: float,
        submit: Callable[[Packet], bool],
        factory: PacketFactory,
        vf_index: int = 0,
        duration: Optional[float] = None,
        dst_ip: str = "10.0.1.1",
        mode: str = "batched",
        window: Optional[float] = None,
    ):
        if offered_load_bps <= 0:
            raise ValueError("offered load must be positive")
        if mode not in ("batched", "process"):
            raise ValueError(f"mode must be 'batched' or 'process', got {mode!r}")
        self.sim = sim
        self.app = app
        self.profile = profile
        self.offered_load_bps = offered_load_bps
        self.submit = submit
        self.factory = factory
        self.vf_index = vf_index
        self.duration = duration
        self.dst_ip = dst_ip
        self.mode = mode
        self._rng = sim.random.stream(f"workload:{app}")
        # Tallies of flows and bytes. A flow completes when its last
        # packet has been *submitted*; delivery is the network's job. In
        # batched mode these are bases under the ledger fold (see
        # properties).
        self._started_base = 0
        self._completed_base = 0
        self._offered_base = 0
        # Flow identities (see _mint_flow): the current source host's
        # address, the hosts opened so far, and the host's remaining
        # ports, empty until the first mint.
        self._src_ip = ""
        self._hosts = 0
        self._ports: Iterator[int] = iter(())
        self._psize = profile.packet_size
        self._gap = profile.packet_size * 8.0 / profile.flow_rate_limit_bps
        # Bounded-Pareto inverse-CDF constants: each is the exact float
        # the per-draw expression computes, so sizes stay bit-identical.
        a = profile.pareto_alpha
        lo, hi = profile.min_flow_bytes, profile.max_flow_bytes
        self._pareto = (
            hi ** a, lo ** a, (hi * lo) ** a, -1.0 / a, int(lo), int(hi)
        )
        # Batched-engine state.
        self._ledgers: "deque[_WindowLedger]" = deque()
        #: Active pacing cursors: [next_instant, packets_left, flow,
        #: last_packet_payload] — one four-slot list per in-flight flow.
        self._cursors: List[List] = []
        self._pending: Optional[Tuple[float, int]] = None
        self._arr_time = 0.0
        self._arr_done = False
        self._lam = self.flow_arrival_rate
        #: Horizon windows generated so far (diagnostic).
        self.windows_generated = 0
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if window is None:
            window = max(
                64 * self._gap,
                65536 * profile.packet_size * 8.0 / offered_load_bps,
            )
        self.window = window
        # Batched ingress: hand whole windows to a trace-capable NIC
        # (same owner detection as FixedRateSender's burst path); any
        # other target gets per-item run-lane callbacks — still one
        # heap operation per window, minted at the exact instants.
        owner = getattr(submit, "__self__", None)
        self._trace_target = (
            owner
            if owner is not None
            and getattr(owner, "ingress_burst", 0) > 0
            and hasattr(owner, "submit_trace")
            else None
        )
        if mode == "process":
            sim.process(self._arrivals())
        else:
            self._window_start = sim.now
            sim.schedule_at(sim.now, self._window_step)

    # ------------------------------------------------------------------
    @property
    def flow_arrival_rate(self) -> float:
        """Poisson λ in flows per second."""
        return self.offered_load_bps / 8.0 / self._pareto_mean()

    def _pareto_mean(self) -> float:
        """Mean of the bounded Pareto implied by the profile bounds and
        alpha (the profile's ``mean_flow_bytes`` is advisory; the
        actual mean follows the distribution)."""
        a = self.profile.pareto_alpha
        lo, hi = self.profile.min_flow_bytes, self.profile.max_flow_bytes
        if a == 1.0:
            return lo * hi / (hi - lo) * math.log(hi / lo)
        return (lo ** a) / (1 - (lo / hi) ** a) * a / (a - 1) * (
            1 / (lo ** (a - 1)) - 1 / (hi ** (a - 1))
        )

    def sample_flow_size(self) -> int:
        """Draw one bounded-Pareto flow size in bytes."""
        hi_a, lo_a, hilo_a, inv, lo, hi = self._pareto
        u = self._rng.random()
        # Inverse CDF of the bounded Pareto:
        # (-(u*hi^a - u*lo^a - hi^a) / (hi*lo)^a) ** (-1/a).
        x = int((-(u * hi_a - u * lo_a - hi_a) / hilo_a) ** inv)
        if x > hi:
            x = hi
        return lo if x < lo else x

    def _mint_flow(self) -> FiveTuple:
        """The next flow's five-tuple, the only object a flow allocates.

        The current source host opens its flows on the ephemeral ports
        in order, reading the shared port ints; the flow after its last
        port opens the next host (:meth:`_open_host`). A ``(host,
        port)`` pair repeats only after 2^16 hosts × 2^14 ports = 2^30
        flows. Destination, port 5001 and TCP are fixed, and the mint
        draws no random number.
        """
        port = next(self._ports, None)
        if port is None:
            port = self._open_host()
        # tuple.__new__ skips the named tuple's Python-level __new__;
        # the fields are FiveTuple's, proto included.
        return tuple.__new__(
            FiveTuple, (self._src_ip, self.dst_ip, port, 5001, PROTO_TCP)
        )

    def _open_host(self) -> int:
        """Start the next block of flows on source host
        ``10.<vf>.<hi>.<lo>`` (hosts numbered from 1, the 16-bit host
        number wrapping); returns the block's first port."""
        global _port_ints
        if not _port_ints:
            _port_ints = tuple(range(49152, 65536))
        self._hosts += 1
        host = self._hosts & 0xFFFF
        self._src_ip = f"10.{self.vf_index}.{host >> 8}.{host & 0xFF}"
        self._ports = iter(_port_ints)
        return next(self._ports)

    # ------------------------------------------------------------------
    # tallies (ledger-folded in batched mode, plain bases otherwise)
    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Retire ledgers whose every instant has elapsed."""
        now = self.sim._now
        ledgers = self._ledgers
        while ledgers and ledgers[0].last <= now:
            led = ledgers.popleft()
            self._started_base += len(led.starts)
            self._completed_base += len(led.ends)
            if led.payload_cum:
                self._offered_base += led.payload_cum[-1]

    @property
    def flows_started(self) -> int:
        self._fold()
        now = self.sim._now
        n = self._started_base
        for led in self._ledgers:
            n += bisect_right(led.starts, now)
        return n

    @property
    def flows_completed(self) -> int:
        self._fold()
        now = self.sim._now
        n = self._completed_base
        for led in self._ledgers:
            n += bisect_right(led.ends, now)
        return n

    @property
    def bytes_offered(self) -> int:
        self._fold()
        now = self.sim._now
        total = self._offered_base
        for led in self._ledgers:
            index = bisect_right(led.times, now)
            if index:
                total += led.payload_cum[index - 1]
        return total

    # ------------------------------------------------------------------
    # reference engine: one process per flow
    # ------------------------------------------------------------------
    def _arrivals(self):
        lam = self.flow_arrival_rate
        while self.duration is None or self.sim.now < self.duration:
            yield self._rng.expovariate(lam)
            if self.duration is not None and self.sim.now >= self.duration:
                break
            self._start_flow()

    def _start_flow(self) -> None:
        self._started_base += 1
        flow = self._mint_flow()
        size = self.sample_flow_size()
        self.sim.process(self._send_flow(flow, size))

    def _send_flow(self, flow: FiveTuple, size_bytes: int):
        profile = self.profile
        remaining = size_bytes
        gap = profile.packet_size * 8.0 / profile.flow_rate_limit_bps
        while remaining > 0:
            payload = min(profile.packet_size, remaining)
            packet = self.factory.make(
                max(64, payload), flow, self.sim.now, app=self.app, vf_index=self.vf_index
            )
            self._offered_base += payload
            self.submit(packet)
            remaining -= payload
            yield gap
        self._completed_base += 1

    # ------------------------------------------------------------------
    # trace engine: horizon-windowed batch generation
    # ------------------------------------------------------------------
    def _window_step(self) -> None:
        # Retire every elapsed ledger (all instants of an earlier window
        # precede this window's start), so a run holds only the current
        # window's ledger however rarely its tallies are read.
        self._fold()
        start = self._window_start
        end = start + self.window
        self.windows_generated += 1
        self._emit_window(start, end)
        self._window_start = end
        if not self._arr_done or self._cursors or self._pending is not None:
            self.sim.schedule_at(end, self._window_step)

    def _emit_window(self, start: float, end: float) -> None:
        """Generate and submit every emission instant in [start, end).

        One pass lays the window's packets out in walk order in typed
        arrays: first the pacing cursors kept from earlier windows, then
        each arrival as it is admitted. A single-packet flow goes
        straight into the arrays; a longer one is walked at once and its
        tail kept as a cursor for the next window. A stable sort by
        instant then merges the flows (DESIGN.md §12). Only the kept
        cursors and the held arrival keep float or int objects past the
        pass, so the window leaves no small-object debris among the
        five-tuples it mints.
        """
        times = array("d")  # emission instants
        flows = []  # five-tuples
        mints = array("q")  # minted packet sizes
        payloads = array("q")
        starts = array("d")  # flow arrival instants
        ends = array("d")  # instants of flows' last packets
        walk = self._walk
        # 1. Walk the cursors kept from earlier windows.
        keep = [
            cur for cur in self._cursors
            if walk(cur, end, times, flows, mints, payloads, ends)
        ]
        # 2. Admit the arrivals landing inside this window, with the
        #    exact RNG-draw order of :meth:`_arrivals`: one expovariate
        #    per candidate arrival, one size draw per arrival inside the
        #    duration, and the terminal overshoot expovariate unpaired.
        #    The one pair drawn past the window is held (drawing ahead
        #    in the same stream keeps the sequence order) and admitted
        #    by the window that contains it.
        held = self._pending
        if held is None or held[0] < end:
            self._pending = None
            expovariate = self._rng.expovariate
            sample = self.sample_flow_size
            mint = self._mint_flow
            lam = self._lam
            psize = self._psize
            d = float("inf") if self.duration is None else self.duration
            t = self._arr_time
            while True:
                if held is not None:
                    t0, size = held
                    held = None
                else:
                    # The reference engine's while-condition: with
                    # duration <= 0 not even the first expovariate is
                    # drawn.
                    if t >= d:
                        break
                    t += expovariate(lam)
                    if t >= d:
                        break
                    size = sample()
                    if t >= end:
                        self._pending = (t, size)
                        break
                    t0 = t
                flow = mint()
                starts.append(t0)
                if 0 < size <= psize:
                    # Sent whole at t0, inside this window.
                    times.append(t0)
                    flows.append(flow)
                    mints.append(size if size >= 64 else 64)
                    payloads.append(size)
                    ends.append(t0)
                elif size <= 0:
                    ends.append(t0)  # degenerate zero-byte flow
                else:
                    n_pkts = -(-size // psize)
                    cur = [t0, n_pkts, flow, size - (n_pkts - 1) * psize]
                    if walk(cur, end, times, flows, mints, payloads, ends):
                        keep.append(cur)
            self._arr_time = t
            self._arr_done = t >= d
        self._cursors = keep
        n = len(times)
        if not n and not starts:
            return
        # 3. Merge every flow's instants into one time-sorted train.
        #    The stable sort keeps equal-instant ties in walk order.
        if n > 1:
            instants = times.tolist()
            pick = itemgetter(*sorted(range(n), key=instants.__getitem__))
            times = array("d", pick(instants))
            del instants  # n floats, freed before the next columns
            flows = pick(flows)
            mints = array("q", pick(mints))
            payloads = pick(payloads)
        self._ledgers.append(_WindowLedger(
            times, array("q", accumulate(payloads)), starts, array("d", sorted(ends))
        ))
        if not n:
            return
        # 4. Submit: one pre-merged trace train to a capable NIC, or
        #    one run-lane train of exact-instant mint callbacks.
        target = self._trace_target
        if target is not None:
            target.submit_trace(
                self.factory.make, times, flows, mints, self.app, self.vf_index,
            )
        else:
            self.sim._queue.push_run(
                TrainCursor(times, self._emit_next, (zip(mints, flows),))
            )

    def _walk(self, cur: List, end: float, times, flows, mints, payloads, ends) -> bool:
        """Walk pacing cursor *cur*'s chain up to *end* into the window's
        arrays; True when the flow has packets left for a later window.

        The chain is the same left-to-right float accumulation the
        per-flow engine performs one yield at a time: ``accumulate``
        runs the identical adds, so every instant is bit-identical.
        """
        t = cur[0]
        if t >= end:
            return True
        gap = self._gap
        n_left = cur[1]
        n_emit = 0
        while n_left > 0 and t < end:
            m = min(n_left, int((end - t) / gap) + 2, _MAX_CHAIN)
            chain = list(accumulate(repeat(gap, m - 1), initial=t))
            k = bisect_left(chain, end)
            times.fromlist(chain[:k])
            n_emit += k
            n_left -= k
            t = chain[k] if k < m else chain[-1] + gap
        cur[0] = t
        cur[1] = n_left
        flows += [cur[2]] * n_emit
        psize = self._psize
        mint_full = psize if psize >= 64 else 64
        if n_left:
            mints.fromlist([mint_full] * n_emit)
            payloads.fromlist([psize] * n_emit)
            return True
        # The flow's final packet fell in this window: it carries the
        # size remainder; every other packet is a full payload.
        ends.append(times[-1])
        last_payload = cur[3]
        mints.fromlist([mint_full] * (n_emit - 1))
        mints.append(last_payload if last_payload >= 64 else 64)
        payloads.fromlist([psize] * (n_emit - 1))
        payloads.append(last_payload)
        return False

    def _emit_next(self, items) -> None:
        """Mint and submit the next packet of a run-lane train; *items*
        yields each item's ``(size, flow)`` in train order."""
        size, flow = next(items)
        packet = self.factory.make(
            size, flow, self.sim._now, app=self.app, vf_index=self.vf_index
        )
        self.submit(packet)
