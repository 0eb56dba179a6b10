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
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..errors import SimulationError

__all__ = ["Event", "EventQueue", "EventRun", "SimEvent", "AllOf", "AnyOf"]


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


class EventRun:
    """A time-sorted train of callbacks occupying a *single* heap slot.

    The run lane: a burst of N pre-sorted future callbacks (e.g. the
    RX DMA completions of a precomputed sender burst) is inserted with
    one ``heappush`` via :meth:`EventQueue.push_run` instead of N. The
    heap key is always the run's *head* item ``(time, seq)``; the event
    loop peeks the remaining items against the heap top and the
    ``_nowq`` FIFO after each callback, so interleaving with ordinary
    events is exactly what N individual pushes would give. Each item
    carries its own ``seq`` drawn from the queue's shared counter at
    insertion, preserving equal-time tie-breaks across lanes.

    ``cancel()`` kills every not-yet-executed item in the train (lazy,
    O(1)); individual items cannot be cancelled separately.
    """

    __slots__ = ("_items", "cancelled", "_queued", "_executing", "_key")

    def __init__(self) -> None:
        #: (time, seq, fn, args) tuples, non-decreasing in (time, seq).
        self._items: Deque[Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]] = deque()
        self.cancelled = False
        #: True while the run sits in the heap under its head's key.
        self._queued = False
        #: True while the event loop is draining items from this run.
        self._executing = False
        #: The (time, seq) key of the run's *live* heap entry.
        #: :meth:`EventQueue.merge_run` can move the head earlier than
        #: the queued key; it then pushes a fresh entry and the old one
        #: goes stale — consumers skip any popped run entry whose key
        #: does not match this slot.
        self._key: Optional[Tuple[float, int]] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def next_time(self) -> Optional[float]:
        """Timestamp of the next pending item, or ``None`` if drained."""
        items = self._items
        return items[0][0] if items else None

    def cancel(self) -> None:
        """Drop every item not yet executed. Idempotent, O(1)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<EventRun n={len(self._items)}{state}>"


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

    def push_run(
        self, entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]
    ) -> EventRun:
        """Insert a time-sorted train of ``(time, fn, args)`` callbacks.

        The whole train costs one heap operation: it is wrapped in an
        :class:`EventRun` keyed by its first entry, and the event loop
        drains it in place, re-keying only when an interleaving event
        (heap or ``_nowq``) must run first. Entry times must be
        non-decreasing and ``>=`` the simulator's current time (callers
        guarantee the latter, as with :meth:`push_now`).

        Sequence numbers are drawn in iteration order from the shared
        counter, so equal-time ties against other lanes resolve exactly
        as N individual :meth:`push` calls issued now would.
        """
        run = EventRun()
        self.extend_run(run, entries)
        return run

    def extend_run(
        self,
        run: EventRun,
        entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> None:
        """Append ``(time, fn, args)`` entries to *run* (may be in flight).

        Appending to a queued or executing run is legal as long as the
        times keep the train monotone; the run is (re-)armed in the heap
        only when it is neither queued nor currently being drained.
        """
        if run.cancelled:
            raise SimulationError("cannot extend a cancelled EventRun")
        items = run._items
        counter = self._counter
        last = items[-1][0] if items else None
        n = 0
        for time, fn, args in entries:
            if last is not None and time < last:
                raise SimulationError(
                    f"EventRun entries must be time-sorted ({time} < {last})"
                )
            last = time
            items.append((time, next(counter), fn, args))
            n += 1
        if n == 0:
            return
        self._live += n
        if not run._queued and not run._executing:
            head = items[0]
            heapq.heappush(self._heap, (head[0], head[1], run))
            run._queued = True
            run._key = (head[0], head[1])

    def merge_run(
        self,
        run: EventRun,
        entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> None:
        """Merge time-sorted *entries* into *run*, re-keying its heap
        entry if the head moves earlier.

        Unlike :meth:`extend_run`, the new entries may interleave with
        — or precede — the run's pending items: the two sorted
        sequences are merged in place by ``(time, seq)``. Each new item
        still draws its seq from the shared counter *now*, so the
        combined execution order (including equal-time tie-breaks
        against other lanes) is exactly what individual :meth:`push`
        calls issued at this moment would give; merging only changes
        how many heap slots and drain segments the items cost. When the
        merged head is earlier than the queued key, a fresh heap entry
        is pushed and the old one goes stale — the event loop and
        :meth:`pop` detect staleness via ``run._key`` and discard it.
        """
        if run.cancelled:
            raise SimulationError("cannot merge into a cancelled EventRun")
        times = [entry[0] for entry in entries]
        if any(map(gt, times, itertools.islice(times, 1, None))):
            last, time = next(
                pair for pair in zip(times, times[1:]) if pair[0] > pair[1]
            )
            raise SimulationError(
                f"EventRun entries must be time-sorted ({time} < {last})"
            )
        if not times:
            return
        # zip stops at the end of *entries* before drawing another seq.
        new = [
            (time, seq, fn, args)
            for (time, fn, args), seq in zip(entries, self._counter)
        ]
        self._live += len(new)
        items = run._items
        if not items or items[-1][0] <= new[0][0]:
            # Pure append: every pending item fires no later than the
            # first new one (new seqs are larger, so an equal-time tail
            # still precedes the new head).
            items.extend(new)
        else:
            # In-place sorted merge — the event loop may hold a
            # reference to this deque, so never rebind ``_items``.
            # ``(time, seq)`` keys are unique, so sorting the two
            # sorted runs (one linear timsort merge) never compares
            # callbacks and yields exactly the ``heapq.merge`` order.
            merged = list(items)
            merged += new
            merged.sort()
            items.clear()
            items.extend(merged)
        if run._executing:
            return  # the drain loop re-arms with the merged head
        head = items[0]
        key = (head[0], head[1])
        if not run._queued:
            heapq.heappush(self._heap, (key[0], key[1], run))
            run._queued = True
            run._key = key
        elif key != run._key:
            heapq.heappush(self._heap, (key[0], key[1], run))
            run._key = key

    def _discard_run(self, run: EventRun) -> None:
        """Drop all pending items of a cancelled run (already un-heaped)."""
        items = run._items
        self._live -= len(items)
        items.clear()
        run._queued = False

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`SimulationError` when the queue is empty.

        Run-lane entries are unbundled one item at a time: the head
        item is returned (wrapped as an :class:`Event`) and the rest of
        the train is re-keyed into the heap. Only the cold
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
                raise SimulationError("pop from an empty event queue")
            time, seq, payload = heapq.heappop(heap)
            cls = payload.__class__
            if cls is not Event:
                if cls is EventRun:
                    if (time, seq) != payload._key:
                        continue  # stale entry left behind by merge_run
                    if payload.cancelled:
                        self._discard_run(payload)
                        continue
                    t, s, fn, args = payload._items.popleft()
                    self._live -= 1
                    payload._queued = False
                    items = payload._items
                    if items:
                        head = items[0]
                        heapq.heappush(heap, (head[0], head[1], payload))
                        payload._queued = True
                        payload._key = (head[0], head[1])
                    return Event(t, s, fn, args)
                # Resume-lane entry: wrap it so pop()'s contract holds
                # (only the cold step() path pays this allocation).
                self._live -= 1
                return Event(time, seq, payload, (None, None))
            self._live -= 1
            if payload.cancelled:
                continue
            return payload

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            top = heap[0]
            payload = top[2]
            cls = payload.__class__
            if cls is Event and payload.cancelled:
                heapq.heappop(heap)
                self._live -= 1
            elif cls is EventRun and (top[0], top[1]) != payload._key:
                heapq.heappop(heap)  # stale entry left behind by merge_run
            elif cls is EventRun and payload.cancelled:
                heapq.heappop(heap)
                self._discard_run(payload)
            else:
                break
        nowq = self._nowq
        while nowq and nowq[0].cancelled:
            nowq.popleft()
            self._live -= 1
        if nowq:
            if heap and heap[0][0] < nowq[0].time:
                return heap[0][0]
            return nowq[0].time
        return heap[0][0] if heap else None


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


class AllOf(SimEvent):
    """Triggers when *all* child events have succeeded.

    The payload is the list of child values, in the order given.
    Fails fast if any child fails.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Any", events: Sequence[SimEvent]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event.subscribe(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[SimEvent], None]:
        def on_child(event: SimEvent) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return on_child


class AnyOf(SimEvent):
    """Triggers when the *first* child event triggers.

    The payload is a ``(index, value)`` tuple identifying the winner.
    """

    __slots__ = ()

    def __init__(self, sim: "Any", events: Sequence[SimEvent]):
        super().__init__(sim)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(events):
            event.subscribe(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[SimEvent], None]:
        def on_child(event: SimEvent) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
            else:
                self.succeed((index, event.value))

        return on_child
