"""The reorder system (paper Fig. 4).

Workers finish packets out of order (different cycle budgets, update
lock luck); the reorder system "sends packets out roughly according to
their incoming sequences". The model is exact rather than rough: each
packet takes a ticket at dispatch, and completions are released to the
Tx ring strictly in ticket order. Dropped packets release their ticket
without emitting anything — otherwise one early drop would stall the
whole egress.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.packet import Packet

__all__ = ["ReorderBuffer"]


class ReorderBuffer:
    """In-order release of out-of-order completions.

    ``emit`` is called synchronously (in ticket order) with each packet
    that should proceed to the Tx ring. Callers that emit on their own
    (the NIC fluid lane) use :meth:`release` instead of :meth:`complete`
    and send the returned run themselves.
    """

    def __init__(
        self,
        emit: Callable[[Packet], None],
        sim=None,
        emit_burst: Optional[Callable[[list], None]] = None,
    ):
        self._emit = emit
        #: Optional burst release: when a head-of-line completion
        #: unparks a run, the whole run is handed over in one call
        #: (the fast path routes it to ``TrafficManager.offer_burst``).
        #: Must be semantically identical to calling ``emit`` per
        #: packet in the same order.
        self._emit_burst = emit_burst
        self._next_ticket = 0
        self._next_release = 0
        #: ticket -> (packet or None-for-drop)
        self._pending: Dict[int, Optional[Packet]] = {}
        #: Maximum number of completions parked waiting for a ticket.
        self.max_parked = 0
        # Observability: only the out-of-order paths emit (parking and
        # the catch-up release), so the common in-order fast path stays
        # untouched even with tracing on.
        self._sim = sim
        tracer = sim.tracer if sim is not None else None
        self._trace = tracer if (tracer is not None and tracer.enabled) else None

    def take_ticket(self) -> int:
        """Assign the next ingress sequence number."""
        ticket = self._next_ticket
        self._next_ticket += 1
        return ticket

    def release(self, ticket: int, packet: Optional[Packet]) -> List[Packet]:
        """Report a finished ticket and return the run it frees.

        The run lists the packets now due at the Tx ring, in ticket
        order: *packet* itself when *ticket* is head of line, then every
        parked completion that follows it without a gap. ``None``
        (dropped) slots free their ticket and are skipped. An
        out-of-order ticket is parked and frees nothing. The caller
        emits the run; :meth:`complete` is this plus the emission.
        """
        if ticket == self._next_release and not self._pending:
            # Lone head of line, the common case: nothing parked
            # behind it to unpark, and nothing to trace.
            self._next_release = ticket + 1
            return [] if packet is None else [packet]
        run = self._take(ticket, packet)
        if self._next_release > ticket + 1 and self._trace is not None:
            self._trace_release()
        return run

    def complete(self, ticket: int, packet: Optional[Packet]) -> None:
        """Report a finished ticket and emit the run it frees; ``None``
        means the packet was dropped and only frees the slot."""
        # A head-of-line completion with nothing parked goes out on its
        # own; one that may unpark a run goes out as one burst.
        burst = self._emit_burst is not None and bool(self._pending)
        run = self._take(ticket, packet)
        if burst:
            if run:
                self._emit_burst(run)
        else:
            emit = self._emit
            for released in run:
                emit(released)
        if self._next_release > ticket + 1 and self._trace is not None:
            self._trace_release()

    def _take(self, ticket: int, packet: Optional[Packet]) -> List[Packet]:
        """:meth:`release` without the release trace, which
        :meth:`complete` records after emitting the run."""
        pending = self._pending
        if ticket < self._next_release or ticket in pending:
            raise ValueError(f"ticket {ticket} completed twice")
        if ticket != self._next_release:
            # Out of order: park until every earlier ticket completes.
            # Only these completions count toward the watermark — a
            # head-of-line completion never waits.
            pending[ticket] = packet
            if len(pending) > self.max_parked:
                self.max_parked = len(pending)
            if self._trace is not None:
                self._trace.emit(
                    self._sim._now, "nic.reorder", "park",
                    ticket=ticket, parked=len(pending),
                    in_flight=self._next_ticket - self._next_release,
                )
            return []
        # Head of line: release it, then drain the parked run behind it
        # (the common case never touches the dict).
        run = [] if packet is None else [packet]
        ticket += 1
        while ticket in pending:
            released = pending.pop(ticket)
            ticket += 1
            if released is not None:
                run.append(released)
        self._next_release = ticket
        return run

    def _trace_release(self) -> None:
        self._trace.emit(
            self._sim._now, "nic.reorder", "release",
            next_release=self._next_release, parked=len(self._pending),
        )

    @property
    def in_flight(self) -> int:
        """Tickets taken but not yet released."""
        return self._next_ticket - self._next_release

    @property
    def parked(self) -> int:
        """Completions waiting for earlier tickets."""
        return len(self._pending)
