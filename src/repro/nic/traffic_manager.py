"""The traffic manager and MAC: Tx ring → FIFO → wire.

Paper §II-B: most NICs expose FIFO queues behind a round-robin
scheduler, giving only per-queue fairness — no conditional policies.
FlowValve therefore treats the whole egress side as *one* FIFO
(abstraction F0 in Fig. 1). The model implements exactly that: a
single drain process pulls the shared Tx ring in order and serialises
each frame onto the :class:`~repro.net.link.Link` at line rate, adding
the configured fixed egress latency (Tx DMA + TM + MAC).

Two drain implementations share that contract (DESIGN.md §7):

* **Process mode** — the generator ``_drain`` loop: one wakeup to
  dequeue each frame plus one to wait out its serialisation. Used
  whenever observability is on (it emits the per-frame queue-depth
  trace) or the pipeline's fast path is disabled.
* **Batched fast path** — :meth:`offer`/:meth:`offer_burst`: egress is
  computed *arithmetically* at enqueue time. Because the wire is FIFO
  and ``Link.send`` starts each frame at ``max(now, busy_until)``, a
  frame's serialisation window is fully determined the moment it is
  accepted; sending it immediately yields bit-identical start/finish/
  delivery times to the paced process without a single TM wakeup. Ring
  capacity is enforced through the Tx ring's virtual occupancy (frames
  whose start still lies in the future), and buffer returns ride the
  pool's lazy ``release_at`` route. Net effect: the ~3 kernel events
  the process mode spends per frame (dequeue wakeup, serialisation
  wait, buffer relink) drop to zero.
"""

from __future__ import annotations

from ..net.link import Link
from ..net.packet import DropReason, Packet
from .rings import TxRing

__all__ = ["TrafficManager"]


class TrafficManager:
    """Drains the Tx ring onto the wire at line rate.

    The NIC's fixed egress latency (Tx DMA + TM + MAC pipelines) is
    modelled as part of the link's propagation delay — it delays
    delivery without consuming wire bandwidth — so the pipeline
    assembly folds ``NicConfig.tx_fixed_latency`` into the link.

    Parameters
    ----------
    on_sent: called with each packet once serialisation finishes (the
        process-mode drain uses it to return the packet's buffer).
    on_sent_at: fast-path variant, called as ``on_sent_at(packet,
        finish)`` at *enqueue* time with the precomputed finish.
    fast: run the batched fast path instead of the drain process.
    """

    def __init__(self, sim, tx_ring: TxRing, link: Link, on_sent=None,
                 on_sent_at=None, fast: bool = False):
        self.sim = sim
        self.tx_ring = tx_ring
        self.link = link
        #: Called with each packet once serialisation finishes (the
        #: pipeline uses it to return the packet's buffer to the pool).
        self.on_sent = on_sent
        self.on_sent_at = on_sent_at
        self.fast = fast
        # Process mode counts a frame when the drain dequeues it; the
        # fast path counts at accept time and subtracts frames whose
        # serialisation hasn't started yet (still in the virtual ring),
        # so `frames_out` reads identically in both modes at any
        # timestamp — including a run horizon that cuts mid-queue.
        self._frames_out = 0
        tracer = sim.tracer
        self._trace = tracer if tracer.enabled else None
        if sim.metrics.enabled:
            sim.metrics.probe("nic.tm.frames_out", lambda: self.frames_out)
            sim.metrics.probe("nic.tm.queue_depth", lambda: len(self.tx_ring))
        self._process = None if fast else sim.process(self._drain())

    def _drain(self):
        """One frame at a time: dequeue, wait serialisation, repeat.

        Waiting out each frame's serialisation time before the next
        dequeue is what enforces the line rate; the fixed latency is
        modelled on the link's propagation side so it doesn't consume
        wire bandwidth.
        """
        trace = self._trace
        while True:
            packet: Packet = yield self.tx_ring.get()
            self._frames_out += 1
            start = self.sim.now
            if trace is not None:
                trace.emit(
                    start, "nic.tm", "queue_depth",
                    depth=len(self.tx_ring), frames_out=self.frames_out,
                    app=packet.app, size=packet.size,
                )
            finish = self.link.send(packet)
            yield finish - start
            if self.on_sent is not None:
                self.on_sent(packet)

    # ------------------------------------------------------------------
    # batched fast path (zero TM events; see module docstring)
    # ------------------------------------------------------------------
    def offer(self, packet: Packet) -> bool:
        """Accept one frame for egress; False (drop-marked) when the
        ring is full. Serialisation is computed immediately."""
        now = self.sim._now
        ring = self.tx_ring
        if not ring.virtual_accept(now):
            packet.mark_dropped(DropReason.QUEUE_FULL)
            return False
        self._frames_out += 1
        link = self.link
        start = link._busy_until
        finish = link.send(packet)
        if start > now:
            ring.virtual_push(start)
        if self.on_sent_at is not None:
            self.on_sent_at(packet, finish)
        return True

    def offer_burst(self, packets) -> list:
        """Accept a burst of frames in one call; returns the rejects.

        Semantically identical to calling :meth:`offer` per frame —
        capacity is checked frame by frame against the evolving virtual
        occupancy — but the delivery events of the accepted run are
        inserted with one batched queue operation
        (:meth:`Link.send_batch`). Rejected frames come back
        drop-marked for the pipeline to tally.
        """
        now = self.sim._now
        ring = self.tx_ring
        link = self.link
        busy = link._busy_until
        if busy < now:
            busy = now
        accepted = []
        rejected = []
        serialization_time = link.serialization_time
        for packet in packets:
            if not ring.virtual_accept(now):
                packet.mark_dropped(DropReason.QUEUE_FULL)
                rejected.append(packet)
                continue
            start = busy
            busy = start + serialization_time(packet)
            if start > now:
                ring.virtual_push(start)
            accepted.append(packet)
        if accepted:
            self._frames_out += len(accepted)
            finishes = link.send_batch(accepted)
            if self.on_sent_at is not None:
                on_sent_at = self.on_sent_at
                for packet, finish in zip(accepted, finishes):
                    on_sent_at(packet, finish)
        return rejected

    @property
    def frames_out(self) -> int:
        """Frames whose serialisation has started (handed to the MAC)."""
        if self.fast:
            return self._frames_out - len(self.tx_ring)
        return self._frames_out

    @property
    def queue_depth(self) -> int:
        """Frames waiting in the Tx ring right now."""
        return len(self.tx_ring)
