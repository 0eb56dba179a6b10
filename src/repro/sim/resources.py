"""Waitable resources for simulation processes.

* :class:`Lock` — a FIFO mutex; models software locks on the NP where a
  thread spins until the holder releases.
* :class:`Store` — a bounded FIFO of items; models rings and queues at
  the process level.
* :class:`TokenPool` — a counted resource (e.g. DMA credits).

All acquisition methods return :class:`SimEvent` objects to ``yield``
from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import CapacityError, SimulationError
from .events import SimEvent

__all__ = ["Lock", "Store", "TokenPool"]


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

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._holder_count > 0

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

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._holder_count == 0:
            self._holder_count = 1
            self.acquisitions += 1
            return True
        return False

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

    @property
    def mean_wait_time(self) -> float:
        """Average wait among *contended* acquisitions (0 if none)."""
        if self.contended_acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.contended_acquisitions


class Store:
    """A bounded FIFO buffer of items with waitable put/get.

    ``put`` on a full store and ``get`` on an empty store both return
    events that trigger when the operation completes, giving natural
    back-pressure between producer and consumer processes.
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
        self._putters: Deque[tuple[SimEvent, Any]] = deque()
        #: Items accepted over the store's lifetime.
        self.total_put = 0
        #: Items handed to getters over the store's lifetime.
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when a bounded store is at capacity."""
        return self.capacity > 0 and len(self._items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Insert *item*, waiting for space if the store is full."""
        ev = SimEvent(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self._items.append(item)
            self.total_put += 1
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if self._getters:
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            return True
        if self.capacity > 0 and len(self._items) >= self.capacity:  # is_full, inlined
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
            self._admit_waiting_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self.total_got += 1
        self._admit_waiting_putter()
        return item

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            putter_ev, item = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            putter_ev.succeed(None)


class TokenPool:
    """A counted resource: acquire *n* units, release *n* units.

    Unlike the scheduling-domain token buckets in :mod:`repro.core`,
    this pool does not refill over time; it models finite hardware
    credits (DMA slots, buffer handles) at the process level.
    """

    def __init__(self, sim: Any, capacity: int, name: str = "pool"):
        if capacity <= 0:
            raise CapacityError(f"token pool capacity must be > 0, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[tuple[SimEvent, int]] = deque()

    @property
    def available(self) -> int:
        """Units currently free."""
        return self._available

    def acquire(self, amount: int = 1) -> SimEvent:
        """Wait until *amount* units are free, then take them."""
        if amount > self.capacity:
            raise CapacityError(
                f"cannot acquire {amount} from pool of capacity {self.capacity}"
            )
        ev = SimEvent(self.sim)
        if self._available >= amount and not self._waiters:
            self._available -= amount
            ev.succeed(amount)
        else:
            self._waiters.append((ev, amount))
        return ev

    def try_acquire(self, amount: int = 1) -> bool:
        """Non-blocking acquire; False if insufficient units."""
        if self._available >= amount and not self._waiters:
            self._available -= amount
            return True
        return False

    def release(self, amount: int = 1) -> None:
        """Return *amount* units and wake satisfiable waiters in order."""
        self._available += amount
        if self._available > self.capacity:
            raise SimulationError(
                f"pool {self.name!r} over-released: {self._available}/{self.capacity}"
            )
        while self._waiters and self._available >= self._waiters[0][1]:
            ev, wanted = self._waiters.popleft()
            self._available -= wanted
            ev.succeed(wanted)
