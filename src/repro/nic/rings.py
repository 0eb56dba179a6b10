"""The shared transmit ring.

Challenge 2 in the paper: "packets are copied to the shared transmit
(Tx) ring buffer and fed into multiple FIFO queues in the traffic
manager. This results in packets of all classes mixed in the Tx buffer
and treated equally upon egress." The ring is a bounded FIFO with
tail-drop — there are no per-class queues anywhere on the NIC, which
is exactly the constraint FlowValve's specialized tail drop works
around.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..net.packet import DropReason, Packet
from ..sim import Store

__all__ = ["TxRing"]


class TxRing:
    """The shared transmit ring between workers and the traffic manager.

    All traffic classes mix here FIFO; a full ring tail-drops — the
    congestion FlowValve's early drop is designed to prevent from ever
    happening to high-priority traffic.

    Two occupancy representations share this interface:

    * **Store mode** (default): a real :class:`~repro.sim.Store` the
      traffic manager's drain process pulls with waitable ``get``.
    * **Virtual mode** (``virtual=True``): the fast-path traffic
      manager serialises frames arithmetically, so no process ever
      dequeues; instead the ring keeps the *serialisation start time*
      of each accepted-but-not-yet-started frame. In store mode a
      frame leaves the ring exactly when the drain process starts
      clocking it onto the wire, so "starts later than now" IS the
      ring occupancy — draining matured entries on every observation
      reproduces the store-mode occupancy (and therefore the same
      tail-drop decisions) without any events.
    """

    def __init__(self, sim, depth: int = 1024, virtual: bool = False):
        self.sim = sim
        self.depth = depth
        self.virtual = virtual
        self.store = Store(sim, capacity=depth, name="tx-ring")
        #: Virtual mode: serialisation start times of queued frames
        #: (monotonic — the wire is FIFO — so a deque stays sorted).
        self._starts = deque()
        self.tail_drops = 0
        #: High-water mark of ring occupancy (diagnostic).
        self.max_occupancy = 0

    def offer(self, packet: Packet) -> bool:
        """Non-blocking enqueue; False (and drop-marked) when full."""
        if self.store.try_put(packet):
            occupancy = len(self.store)
            if occupancy > self.max_occupancy:
                self.max_occupancy = occupancy
            return True
        self.tail_drops += 1
        packet.mark_dropped(DropReason.QUEUE_FULL)
        return False

    def get(self):
        """Waitable dequeue for the traffic manager."""
        return self.store.get()

    def try_get(self) -> Optional[Packet]:
        return self.store.try_get()

    # -- virtual mode (fast-path traffic manager) ----------------------
    def virtual_accept(self, now: float) -> bool:
        """Capacity check at *now*; counts (not marks) a tail-drop.

        Matured starts leave first: the store-mode drain pops a frame
        at the instant its serialisation starts, and ties resolve the
        same way (the drain's wakeup precedes an equal-time offer).
        """
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        if len(starts) >= self.depth:
            self.tail_drops += 1
            return False
        return True

    def virtual_push(self, start: float) -> None:
        """Record an accepted frame that starts serialising at *start*.

        Frames starting immediately are never pushed — in store mode
        they are handed straight to the waiting drain process and never
        occupy the ring either.
        """
        starts = self._starts
        starts.append(start)
        occupancy = len(starts)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy

    def __len__(self) -> int:
        if self.virtual:
            starts = self._starts
            now = self.sim._now
            while starts and starts[0] <= now:
                starts.popleft()
            return len(starts)
        return len(self.store)
