"""Boundary endpoints for cross-shard links.

When a topology is partitioned across shard workers (DESIGN.md §11),
a :class:`~repro.net.link.Link` whose receiver lives in another
simulation domain cannot deliver locally. Instead its lazy-delivery
slot is pointed at a :class:`BoundaryOutbox`: every frame the wire
finishes serialising is recorded as a compact, picklable *wire record*
instead of a delivery event. At each window barrier the records are
drained, routed, and spliced into the destination domain's event queue
through :class:`RemoteIngress` as one :class:`~repro.sim.events.EventRun`
train — the same run-lane format burst ingress uses, so a whole
window's worth of remote arrivals costs a single heap slot.

The outbox duck-types ``PacketSink.receive_later(time, packet)``,
which is the only method :meth:`Link.send`/:meth:`Link.send_batch`
call on a lazy sink — so the boundary route works on both the eventful
and the batched egress paths with no link changes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.events import TrainCursor
from .flow import FiveTuple
from .packet import Packet

__all__ = ["WireRecord", "BoundaryOutbox", "RemoteIngress", "WIRE_FLOW"]

#: A frame on the cross-shard wire:
#: ``(arrival_time, seq, size, created_at, app, vf_index)``.
#: Plain tuples pickle fast and compactly over the barrier pipes.
WireRecord = Tuple[float, int, int, float, str, int]

#: Placeholder five-tuple for frames rebuilt at a remote ingress. The
#: sink accounts by ``packet.app``, never by flow, so one shared
#: constant avoids shipping (and re-interning) five-tuples per frame.
WIRE_FLOW = FiveTuple("0.0.0.0", "0.0.0.0", 0, 0)


class BoundaryOutbox:
    """The sending end of a cross-domain wire.

    Installed with ``link.enable_lazy_delivery(outbox)``; collects one
    :data:`WireRecord` per frame, in wire order (the serialising link
    commits non-decreasing finish times).
    """

    __slots__ = ("src", "dst", "records")

    def __init__(self, src: str, dst: str):
        #: Source / destination domain names (domain == NIC).
        self.src = src
        self.dst = dst
        self.records: List[WireRecord] = []

    def receive_later(self, time: float, packet: Packet) -> None:
        """Record one frame's arrival at the remote domain (lazy-sink
        protocol — called by the link with the absolute arrival time)."""
        self.records.append(
            (time, packet.seq, packet.size, packet.created_at, packet.app, packet.vf_index)
        )

    def drain(self) -> List[WireRecord]:
        """Take every record accumulated since the last drain."""
        records = self.records
        self.records = []
        return records


class RemoteIngress:
    """The receiving end: splices wire records into a domain's queue.

    Each window barrier injects the (already globally sorted) train of
    remote arrivals with one ``push_run`` — a single heap slot whose
    items interleave with local events exactly as individual deliveries
    would. The train is one kernel cursor over the clamped arrival
    times whose per-item arguments are the records themselves.
    Delivery rebuilds a lightweight :class:`Packet` and feeds it
    through the domain's receive callable after folding the sink's
    lazy pending (so per-app accounting observes non-decreasing times).

    When the destination domain's NIC runs the fluid fast-forward lane
    (DESIGN.md §7), the train is merged into that pipeline's shared
    ingress run instead (``EventQueue.merge_run``): successive barrier
    trains and local burst trains then share ONE run, so a window's
    remote arrivals stop shredding the local trains into per-item
    drain segments. Item (time, seq) order — and hence behavior — is
    identical either way (both routes draw seqs from the shared kernel
    counter at injection time); only the executed-event count differs.
    Every other destination shape — software port, fluid disabled,
    recording wrappers — conservatively keeps the per-packet
    ``push_run`` route.
    """

    __slots__ = ("sim", "sink", "receive", "pipeline")

    def __init__(self, sim, sink, receive: Callable[[Packet], None],
                 pipeline=None):
        self.sim = sim
        self.sink = sink
        #: The domain's delivery callable — ``sink.receive`` or a
        #: recording wrapper around it (determinism suite).
        self.receive = receive
        #: The destination domain's :class:`NicPipeline`, or None for
        #: software-port domains. Only consulted for its fluid lane.
        self.pipeline = pipeline

    def inject(self, barrier: float, records: Sequence[WireRecord]) -> None:
        """Splice *records* (sorted by arrival) in at a window barrier.

        Arrival times are clamped to ``>= barrier``: conservative
        lookahead guarantees every arrival lands in a later window, but
        a float sum can land one ulp short of the boundary, which
        ``push_run`` (correctly) rejects as scheduling into the past.
        The clamp is applied identically in single- and multi-shard
        runs, so it never breaks bit-identity. The queued train keeps
        *records* until its items have run, so the caller must not
        mutate the list afterwards.
        """
        if not records:
            return
        times = [
            time if time > barrier else barrier for time in map(itemgetter(0), records)
        ]
        # Each record is its item's argument tuple (``_deliver``'s
        # signature), so the train keeps *records* rather than copying it.
        train = TrainCursor(times, self._deliver, each=records)
        pipeline = self.pipeline
        if pipeline is not None and pipeline._fluid is not None:
            # Fluid destination: one shared run for all ingress trains.
            self.sim._queue.merge_run(pipeline.ingress_run(), train)
        else:
            self.sim._queue.push_run(train)

    def _deliver(self, time: float, seq: int, size: int, created_at: float,
                 app: str, vf_index: int) -> None:
        packet = Packet(seq, size, WIRE_FLOW, created_at, app=app, vf_index=vf_index)
        packet.delivered_at = self.sim._now
        self.sink._fold()
        self.receive(packet)

    def fold_direct(self, records: Sequence[WireRecord], until: float) -> None:
        """Deliver *records* by direct accounting, bypassing the queue.

        The zero-lookahead fallback (ShardPlan degraded mode): domains
        run their full horizon sequentially, then cross-domain frames
        with arrival ``<= until`` are folded straight into the sink in
        global wire order. Rate bins are index-addressed
        (:class:`~repro.stats.timeseries.RateSeries`), so accounting
        after the local stream is safe for every tallied quantity
        except the raw per-delivery *delay sample order* — which is why
        the planner warns rather than doing this silently.
        """
        sink = self.sink
        sink._fold(until=until)
        for time, seq, size, created_at, app, vf_index in records:
            if time > until:
                continue
            packet = Packet(seq, size, WIRE_FLOW, created_at, app=app, vf_index=vf_index)
            packet.delivered_at = time
            sink._account(packet, time)
