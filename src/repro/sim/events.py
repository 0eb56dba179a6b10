"""Event primitives for the simulation kernel.

Two distinct notions of "event" live here:

* :class:`Event` — a *scheduled callback*: an entry in the simulator's
  time-ordered :class:`EventQueue`. This is the low-level, high-volume
  mechanism (one per packet arrival, per token-bucket refresh, ...).
* :class:`SimEvent` — a *waitable condition* in the style of simpy:
  processes subscribe to it and are resumed when it triggers. Used by
  the generator-process layer and the resource classes.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from operator import gt
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError

__all__ = ["Event", "EventQueue", "EventRun", "TrainCursor", "SimEvent"]


class Event:
    """A callback scheduled at an absolute simulation time.

    Events are created through :meth:`Simulator.schedule`; user code
    normally only keeps the handle to :meth:`cancel` it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent.

        The entry stays queued (lazy deletion) and is skipped when it
        reaches the front, so cancellation is O(1).
        """
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} #{self.seq} {getattr(self.fn, '__name__', self.fn)}{state}>"


def _call_entry(time: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    """Run one ``(time, fn, args)`` entry of a generic train."""
    fn(*args)


class TrainCursor:
    """One time-sorted train of run-lane items and the kernel's cursor
    into it.

    Item ``i`` fires at ``times[i] + offset`` with seq ``seq + i`` and
    runs ``call(*args)``, or ``call(*each[i])`` when the train carries
    per-item arguments. The cursor keeps the producer's own instant
    sequence (a list or an ``array('d')``, never copied), and each
    item's time is computed when the item runs, so a train of any
    length costs the kernel one object and one heap entry. ``seq`` is a block drawn from the queue's
    shared counter when the train is merged (so a cursor is merged at
    most once); ``pos`` is the index of the next item to run.

    ``TrainCursor.from_entries`` wraps a sequence of ``(time, fn,
    args)`` entries whose callbacks differ from item to item.
    """

    __slots__ = ("times", "offset", "call", "args", "each", "seq", "pos", "n")

    def __init__(
        self,
        times: Sequence[float],
        call: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        each: Optional[Sequence[Tuple[Any, ...]]] = None,
        offset: float = 0.0,
    ):
        #: Non-decreasing item instants (the producer's sequence).
        self.times = times
        #: Added to every instant when its item runs (e.g. a DMA latency).
        self.offset = offset
        self.call = call
        #: Arguments shared by every item (used when ``each`` is None).
        self.args = args
        #: Per-item argument tuples, or None.
        self.each = each
        #: First seq of the train's block; None until merged.
        self.seq: Optional[int] = None
        self.pos = 0
        self.n = len(times)

    @classmethod
    def from_entries(
        cls, entries: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]
    ) -> "TrainCursor":
        """A train of ``(time, fn, args)`` entries, each item running
        its own ``fn(*args)``."""
        entries = list(entries)
        return cls([entry[0] for entry in entries], _call_entry, each=entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TrainCursor {self.pos}/{self.n} {getattr(self.call, '__name__', self.call)}>"


def _as_cursor(train) -> TrainCursor:
    return train if train.__class__ is TrainCursor else TrainCursor.from_entries(train)


class EventRun:
    """Time-sorted trains of callbacks sharing a *single* heap slot.

    The run lane: a train of N pre-sorted future callbacks (the RX DMA
    completions of a sender burst, a trace window, a barrier train) is
    one :class:`TrainCursor`, and merging it into a run is one push on
    the run's small heap of cursors, keyed by each train's next item
    ``(time, seq)``. The kernel heap holds the run once, keyed by its
    earliest item; the event loop drains items in place, taking each
    from the cursor whose item is earliest, while that item still beats
    the heap top and the ``_nowq`` FIFO, so interleaving with ordinary
    events is exactly what N individual pushes would give. A train's
    seq block is drawn from the queue's shared counter when it is
    merged, preserving equal-time tie-breaks across lanes.

    ``cancel()`` kills every not-yet-executed item of every train in
    the run (lazy, O(1)); individual items cannot be cancelled.
    """

    __slots__ = ("_trains", "_cur", "cancelled", "_queued", "_key")

    def __init__(self) -> None:
        #: Heap of ``(time, seq, cursor)``, one entry per pending train,
        #: keyed by the train's next item. Seqs are unique, so entries
        #: never compare cursors.
        self._trains: List[Tuple[float, int, TrainCursor]] = []
        #: The cursor the event loop is draining (held outside
        #: ``_trains`` while its items run), or None.
        self._cur: Optional[TrainCursor] = None
        self.cancelled = False
        #: True while the run sits in the heap under its head's key.
        self._queued = False
        #: The (time, seq) key of the run's *live* heap entry.
        #: :meth:`EventQueue.merge_run` can move the head earlier than
        #: the queued key; it then pushes a fresh entry and the old one
        #: goes stale — consumers skip any popped run entry whose key
        #: does not match this slot.
        self._key: Optional[Tuple[float, int]] = None

    def _cursors(self) -> List[TrainCursor]:
        cursors = [entry[2] for entry in self._trains]
        if self._cur is not None:
            cursors.append(self._cur)
        return cursors

    def __len__(self) -> int:
        return sum(cursor.n - cursor.pos for cursor in self._cursors())

    @property
    def next_time(self) -> Optional[float]:
        """Timestamp of the next pending item, or ``None`` if drained."""
        pending = [
            cursor.times[cursor.pos] + cursor.offset
            for cursor in self._cursors()
            if cursor.pos < cursor.n
        ]
        return min(pending) if pending else None

    def cancel(self) -> None:
        """Drop every item not yet executed. Idempotent, O(1)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<EventRun n={len(self)} trains={len(self._cursors())}{state}>"


class EventQueue:
    """A time-ordered priority queue of :class:`Event` objects.

    Ties are broken by insertion sequence so that equal-time events run
    in the order they were scheduled — this is what makes runs
    deterministic.

    Three internal stores back the queue (the hot-path layout the event
    loop in :meth:`Simulator.run` exploits directly):

    * ``_heap`` — ``(time, seq, event)`` tuples ordered by ``heapq``.
      Tuples compare on the float/int keys at C speed, so pushing and
      popping never call a Python ``__lt__``; ``seq`` is unique, so
      the comparison never reaches the event object itself. The third
      element is normally an :class:`Event`, but the *resume lane*
      (process delay-yields, the most frequent event kind) stores the
      bare resume callable instead — no handle allocation, called as
      ``fn(None, None)``, never cancellable — and the *run lane*
      stores an :class:`EventRun` keyed by its head item. Consumers
      dispatch on ``payload.__class__``.
    * ``_nowq`` — a FIFO of zero-delay events (process resumes, event
      callbacks, store handoffs — roughly half of all traffic). They
      fire at the timestamp they were scheduled, so a deque append
      replaces an O(log n) heap push. All stores share one ``seq``
      counter and every pop compares ``(time, seq)`` across them, so
      the merged order is exactly the order a single heap would give.
    """

    __slots__ = ("_heap", "_nowq", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._nowq: Deque[Event] = deque()
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()) -> Event:
        """Insert a callback at absolute *time* and return its handle."""
        event = Event(time, next(self._counter), fn, args)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def push_now(self, now: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()) -> Event:
        """Insert a callback firing at the current timestamp *now*.

        The fast path for zero-delay scheduling: the entry goes to the
        FIFO ``_nowq`` instead of the heap. Only valid for ``now`` ==
        the simulator's current time (callers guarantee this).
        """
        event = Event(now, next(self._counter), fn, args)
        self._nowq.append(event)
        self._live += 1
        return event

    def push_batch(self, entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]) -> List[Event]:
        """Insert several ``(time, fn, args)`` callbacks in one call.

        Sequence numbers are assigned in iteration order, so the batch
        fires in exactly the order N individual :meth:`push` calls
        would give. Small batches pay N heap pushes; a batch comparable
        in size to the heap itself is cheaper to splice in wholesale
        and re-heapify (O(n + k) vs O(k log n)).
        """
        counter = self._counter
        heap = self._heap
        events = [Event(time, next(counter), fn, args) for time, fn, args in entries]
        k = len(events)
        if k >= 8 and 4 * k >= len(heap):
            heap.extend((event.time, event.seq, event) for event in events)
            heapq.heapify(heap)
        else:
            for event in events:
                heapq.heappush(heap, (event.time, event.seq, event))
        self._live += k
        return events

    def push_run(self, train) -> EventRun:
        """Insert a time-sorted train as a new :class:`EventRun`.

        *train* is a :class:`TrainCursor`, or a sequence of ``(time,
        fn, args)`` entries. The whole train costs one heap operation:
        the run is keyed by its first item, and the event loop drains it
        in place, re-keying only when an interleaving event (heap or
        ``_nowq``) must run first. Item times must be non-decreasing and
        ``>=`` the simulator's current time (callers guarantee the
        latter, as with :meth:`push_now`).

        The train's seqs are drawn as one block from the shared counter,
        so equal-time ties against other lanes resolve exactly as N
        individual :meth:`push` calls issued now would.
        """
        run = EventRun()
        self._merge(run, _as_cursor(train))
        return run

    def merge_run(self, run: EventRun, train) -> None:
        """Merge a time-sorted train into *run*, re-keying its heap
        entry if the head moves earlier.

        *train* is a :class:`TrainCursor` or a sequence of ``(time, fn,
        args)`` entries. Its items may interleave with — or precede —
        the run's pending items: the run orders its trains by their
        next items, so merging is one push on the run's cursor heap,
        whatever the train's length. The train draws its seq block from
        the shared counter *now*, so the combined execution order
        (including equal-time tie-breaks against other lanes) is exactly
        what individual :meth:`push` calls issued at this moment would
        give; merging only changes how many heap slots and drain
        segments the items cost. When the merged head is earlier than
        the queued key, a fresh heap entry is pushed and the old one
        goes stale — the event loop and :meth:`pop` detect staleness
        via ``run._key`` and discard it.
        """
        if run.cancelled:
            raise SimulationError("cannot merge into a cancelled EventRun")
        self._merge(run, _as_cursor(train))

    def _merge(self, run: EventRun, cursor: TrainCursor) -> None:
        times = cursor.times
        if any(map(gt, times, itertools.islice(times, 1, None))):
            last, time = next(
                pair for pair in zip(times, times[1:]) if pair[0] > pair[1]
            )
            raise SimulationError(
                f"EventRun entries must be time-sorted ({time} < {last})"
            )
        n = cursor.n
        if not n:
            return
        if cursor.seq is not None:
            raise SimulationError("a TrainCursor can be merged only once")
        # One block of n seqs: the counter resumes after the block.
        seq = next(self._counter)
        self._counter = itertools.count(seq + n)
        cursor.seq = seq
        self._live += n
        time = times[0] + cursor.offset
        heapq.heappush(run._trains, (time, seq, cursor))
        if run._cur is not None:
            return  # executing: the drain loop takes the new train in turn
        # The new train's seqs are the newest, so it heads the run only
        # if it starts strictly earlier than the queued key.
        if not run._queued:
            heapq.heappush(self._heap, (time, seq, run))
            run._queued = True
            run._key = (time, seq)
        elif time < run._key[0]:
            heapq.heappush(self._heap, (time, seq, run))
            run._key = (time, seq)

    def _discard_run(self, run: EventRun) -> None:
        """Drop all pending items of a cancelled run (already un-heaped)."""
        self._live -= len(run)
        run._trains.clear()
        run._queued = False

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or
        ``None`` when no live event is left (the cancelled ones met on
        the way are dropped).

        Run-lane entries are unbundled one item at a time: the head
        item is returned (wrapped as an :class:`Event`) and the rest of
        the run is re-keyed into the heap. Only the cold
        :meth:`Simulator.step` path pays this.
        """
        heap = self._heap
        nowq = self._nowq
        while True:
            if nowq:
                event = nowq[0]
                top = heap[0] if heap else None
                if top is None or top[0] > event.time or (
                    top[0] == event.time and top[1] > event.seq
                ):
                    nowq.popleft()
                    self._live -= 1
                    if event.cancelled:
                        continue
                    return event
            if not heap:
                return None
            time, seq, payload = heapq.heappop(heap)
            cls = payload.__class__
            if cls is not Event:
                if cls is EventRun:
                    if (time, seq) != payload._key:
                        continue  # stale entry left behind by merge_run
                    if payload.cancelled:
                        self._discard_run(payload)
                        continue
                    trains = payload._trains
                    if not trains:
                        continue  # a drained run's second entry (see Simulator.run)
                    cursor = trains[0][2]
                    i = cursor.pos
                    cursor.pos = j = i + 1
                    if j < cursor.n:
                        heapq.heapreplace(
                            trains, (cursor.times[j] + cursor.offset, cursor.seq + j, cursor)
                        )
                    else:
                        heapq.heappop(trains)
                    self._live -= 1
                    payload._queued = False
                    if trains:
                        head = trains[0]
                        heapq.heappush(heap, (head[0], head[1], payload))
                        payload._queued = True
                        payload._key = (head[0], head[1])
                    each = cursor.each
                    return Event(
                        time, seq, cursor.call, cursor.args if each is None else each[i]
                    )
                # Resume-lane entry: wrap it so pop()'s contract holds
                # (only the cold step() path pays this allocation).
                self._live -= 1
                return Event(time, seq, payload, (None, None))
            self._live -= 1
            if payload.cancelled:
                continue
            return payload


class SimEvent:
    """A one-shot waitable condition.

    Starts untriggered; :meth:`succeed` (or :meth:`fail`) triggers it
    exactly once, resuming every subscribed process/callback. Late
    subscribers on an already-triggered event are resumed immediately
    (on the same simulation timestamp, via the simulator's "now" queue).
    """

    __slots__ = ("sim", "triggered", "ok", "value", "_callbacks")

    def __init__(self, sim: "Any") -> None:
        self.sim = sim
        self.triggered = False
        #: True if succeeded, False if failed; meaningless until triggered.
        self.ok = True
        #: Payload delivered to waiters (the yielded value in processes).
        self.value: Any = None
        self._callbacks: List[Callable[["SimEvent"], None]] = []

    def subscribe(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register *callback* to run when the event triggers."""
        if self.triggered:
            # Deliver asynchronously-but-now to preserve run-to-completion
            # semantics of the caller. Goes straight to the zero-delay
            # FIFO lane — the same slot ``schedule(0.0, ...)`` would
            # assign, without the schedule() branch and call frame.
            self.sim._queue.push_now(self.sim._now, callback, (self,))
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully with an optional payload.

        (_trigger is inlined here: succeed runs for every resource
        handoff, so the extra call frame is measurable.)
        """
        if self.triggered:
            raise SimulationError("SimEvent triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            schedule = self.sim.schedule
            for callback in callbacks:
                schedule(0.0, callback, self)
        return self

    def succeed_now(self, value: Any = None) -> "SimEvent":
        """Trigger successfully and run waiters *synchronously*.

        :meth:`succeed` defers waiter callbacks through the zero-delay
        queue, preserving run-to-completion order among equal-time
        events. This variant runs them inline — one fewer kernel event
        per trigger — and is reserved for fast-path handoffs where the
        caller knows no other same-timestamp event can observe the
        difference (DESIGN.md §7).
        """
        if self.triggered:
            raise SimulationError("SimEvent triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Trigger the event as failed; waiters re-raise *exc*."""
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError("SimEvent triggered twice")
        self.triggered = True
        self.ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        if callbacks:
            schedule = self.sim.schedule
            for callback in callbacks:
                schedule(0.0, callback, self)
