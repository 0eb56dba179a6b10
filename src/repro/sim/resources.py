"""Waitable resources for simulation processes.

* :class:`Lock` — a FIFO mutex; models software locks on the NP where a
  thread spins until the holder releases.
* :class:`Store` — a bounded FIFO of items; models rings and queues at
  the process level.

``Lock.acquire`` and ``Store.get`` return :class:`SimEvent` objects to
``yield`` from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import CapacityError, SimulationError
from .events import SimEvent

__all__ = ["Lock", "Store"]


class Lock:
    """FIFO mutual exclusion.

    Usage in a process::

        yield lock.acquire()
        try:
            ...critical section...
        finally:
            lock.release()

    Statistics (`acquisitions`, `contended_acquisitions`,
    `total_wait_time`) feed the lock-contention ablation (A-LOCK).
    """

    def __init__(self, sim: Any, name: str = "lock"):
        self.sim = sim
        self.name = name
        self._holder_count = 0
        self._waiters: Deque[tuple[SimEvent, float]] = deque()
        #: Total successful acquisitions.
        self.acquisitions = 0
        #: Acquisitions that had to wait for another holder.
        self.contended_acquisitions = 0
        #: Sum of simulated seconds spent waiting.
        self.total_wait_time = 0.0

    def acquire(self) -> SimEvent:
        """Return an event that succeeds once the lock is held."""
        ev = SimEvent(self.sim)
        if self._holder_count == 0:
            self._holder_count = 1
            self.acquisitions += 1
            ev.succeed(self)
        else:
            self.contended_acquisitions += 1
            self._waiters.append((ev, self.sim.now))
        return ev

    def release(self) -> None:
        """Release the lock, waking the longest-waiting acquirer."""
        if self._holder_count == 0:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        if self._waiters:
            ev, enqueued_at = self._waiters.popleft()
            self.acquisitions += 1
            self.total_wait_time += self.sim.now - enqueued_at
            ev.succeed(self)
        else:
            self._holder_count = 0


class Store:
    """A bounded FIFO buffer of items with a waitable get.

    ``get`` on an empty store returns an event that triggers when an
    item arrives; ``try_put`` on a full store refuses the item, which
    is how the NIC's rings tail-drop.
    """

    def __init__(self, sim: Any, capacity: int = 0, name: str = "store"):
        if capacity < 0:
            raise CapacityError(f"store capacity must be >= 0, got {capacity}")
        self.sim = sim
        self.name = name
        #: 0 means unbounded.
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        #: Items accepted over the store's lifetime.
        self.total_put = 0
        #: Items handed to getters over the store's lifetime.
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if self._getters:
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            return True
        if self.capacity > 0 and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self.total_put += 1
        return True

    def try_put_now(self, item: Any) -> bool:
        """:meth:`try_put` with a *synchronous* getter handoff.

        When a getter is parked, its process resumes inline instead of
        through a zero-delay event — same timestamp, one fewer kernel
        event per handoff. Fast-path use only (DESIGN.md §7): the
        resumed process runs before any other event already queued at
        this timestamp, so callers must tolerate that reordering.
        """
        if self._getters:
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed_now(item)
            return True
        if self.capacity > 0 and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self.total_put += 1
        return True

    def get(self) -> SimEvent:
        """Remove the oldest item, waiting if the store is empty."""
        ev = SimEvent(self.sim)
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self.total_got += 1
        return item
