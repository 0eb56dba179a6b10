"""The simulation clock and event loop."""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..stats.metrics import MetricsRegistry, NullMetricsRegistry
from .events import Event, EventQueue, EventRun, SimEvent
from .randomness import RandomStreams
from .trace import NullTracer, Tracer

__all__ = ["Simulator"]


class Simulator:
    """Owns simulated time and the event queue.

    One :class:`Simulator` instance is shared by every component of an
    experiment (hosts, NIC, links, schedulers). Time is a float in
    seconds and only ever moves forward.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.randomness.RandomStreams`;
        identical seeds give bit-identical runs.
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` receiving structured
        trace records from instrumented components.
    metrics:
        Optional :class:`~repro.stats.metrics.MetricsRegistry`;
        instrumented components register counters and probes on it.
        Defaults to the no-op registry, which records nothing.
    """

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        #: Count of events executed so far (diagnostic).
        self.events_executed = 0
        #: Horizon of the in-progress run() (+inf outside / open-ended).
        #: Fast paths that pre-aggregate future work consult it so they
        #: never perform state changes the horizon would have cut off.
        self._horizon = float("inf")
        #: Absolute time through which deferred event-free work (the
        #: fluid lane's micro-queue) may be *carried across* back-to-back
        #: ``run(until=...)`` calls. The sharded engine's window barriers
        #: are pause points, not ends: steps maturing past a barrier
        #: flush during the next window, so absorption may look through
        #: barriers all the way to the simulation's final horizon. The
        #: default (-inf) never extends a run's own horizon.
        self.carry_horizon = float("-inf")
        #: Per-purpose deterministic random streams.
        self.random = RandomStreams(seed)
        #: Structured trace sink; NullTracer discards everything.
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        #: Metrics registry; the no-op default records nothing.
        self.metrics: MetricsRegistry = metrics if metrics is not None else NullMetricsRegistry()
        #: Drain hooks: callables returning an Optional[float] timestamp
        #: of lazily-recorded pending work (e.g. folded link deliveries)
        #: that owns no kernel event. When an open-ended run() drains
        #: the queue, the clock advances to the latest such timestamp so
        #: `run(until=None)` ends at the same final time an eventful run
        #: would (see PacketSink lazy accounting).
        self._drain_hooks: list = []
        #: End hooks: callables invoked once per run(), after the final
        #: clock is settled (including the advance-to-`until` clamp).
        #: Lazy fast paths register flushes here so deferred work with
        #: no kernel event of its own (the NIC fluid lane's micro-queue)
        #: is applied before run() returns and observers look at state.
        self._end_hooks: list = []

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` *delay* seconds from now; returns a handle.

        ``delay`` must be non-negative (a NaN delay is rejected too). A
        zero delay runs the callback after the current callback returns
        (run-to-completion), still at the same timestamp — via the
        queue's FIFO fast path rather than the heap (same firing order,
        no heap traffic).

        The queue insert is inlined (not ``self._queue.push(...)``):
        this method runs about once per executed event, so one call
        frame per schedule is measurable.
        """
        queue = self._queue
        if delay == 0.0:
            event = Event(self._now, next(queue._counter), fn, args)
            queue._nowq.append(event)
        else:
            # One comparison rejects both a negative and a NaN delay.
            if not delay > 0.0:
                raise SimulationError(
                    f"delay must be a non-negative number, got {delay}"
                )
            time = self._now + delay
            event = Event(time, next(queue._counter), fn, args)
            heapq.heappush(queue._heap, (time, event.seq, event))
        queue._live += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulation *time* (not NaN,
        and not before now)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at time={time} (now={self._now}): "
                "it is in the past or NaN"
            )
        return self._queue.push(time, fn, args)

    def event(self) -> SimEvent:
        """Create a fresh untriggered :class:`SimEvent` bound to this sim."""
        return SimEvent(self)

    def process(self, generator: Any) -> "Any":
        """Start a generator as a simulation process (see :mod:`.process`)."""
        from .process import Process

        return Process(self, generator)

    def add_drain_hook(self, fn: Callable[[], Optional[float]]) -> None:
        """Register a callable reporting pending event-free work.

        *fn* returns the latest simulation timestamp of work recorded
        lazily outside the event queue (or ``None`` if none pending).
        Open-ended :meth:`run` calls advance the clock to the largest
        reported time when the queue drains.
        """
        self._drain_hooks.append(fn)

    def add_end_hook(self, fn: Callable[[], None]) -> None:
        """Register a callable invoked when each :meth:`run` finishes.

        Hooks run after the final clock is settled (the last event, the
        drain-hook advance, or the ``until`` clamp) and before ``run``
        returns — the point where deferred-but-determined work must be
        materialised so post-run observers see a consistent world.
        """
        self._end_hooks.append(fn)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event. Returns False when no live event is
        queued (cancelled events still in the queue do not count)."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self.events_executed += 1
        event.fn(*event.args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes *until*.

        Returns the final simulation time. When *until* is given the
        clock is advanced to exactly *until* even if the last event
        fired earlier (so back-to-back ``run`` calls tile cleanly).

        This loop is the simulator's hottest code: it merges the
        queue's zero-delay FIFO and the time heap inline (no per-event
        ``peek``/``pop`` method calls), preserving the exact
        ``(time, seq)`` order a single priority queue would produce.

        The cyclic garbage collector is suspended for the loop and
        restored to its prior state on return (raise included). Events
        create no reference cycles (``tests/test_sim_gc.py`` enforces
        it), so the collections the loop's allocations would trigger
        find nothing, yet each still walks its generation's
        containers. ``gc.disable()`` is process-wide, so simulators
        must not run on several threads at once; nothing in this
        package does. See DESIGN.md §7.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until != until:
            # No event time exceeds a NaN horizon, so the loop would run
            # for as long as any event keeps rescheduling.
            raise SimulationError("Simulator.run() needs a horizon that is not NaN")
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        nowq = queue._nowq
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        # One float comparison per event instead of a None test + a
        # comparison: an open-ended run uses +inf as its horizon.
        horizon = float("inf") if until is None else until
        self._horizon = horizon
        executed = 0
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            while not self._stopped:
                if nowq:
                    event = nowq[0]
                    if heap:
                        top = heap[0]
                        if top[0] < event.time or (
                            top[0] == event.time and top[1] < event.seq
                        ):
                            event = None  # an older heap event fires first
                    if event is not None:
                        # Discard a cancelled head before the horizon
                        # test, as the heap and run lanes do, so a run
                        # that stops leaves none counted as pending.
                        if event.cancelled:
                            nowq.popleft()
                            queue._live -= 1
                            continue
                        if event.time > horizon:
                            break
                        nowq.popleft()
                        queue._live -= 1
                        self._now = event.time
                        executed += 1
                        event.fn(*event.args)
                        continue
                if not heap:
                    if nowq:
                        continue  # heap drained mid-iteration; re-merge
                    if self._drain_hooks:
                        target = self._now
                        for hook in self._drain_hooks:
                            t = hook()
                            if t is not None and t > target:
                                target = t
                        if target > horizon:
                            target = horizon
                        if target > self._now:
                            self._now = target
                    break
                top = heap[0]
                payload = top[2]
                cls = payload.__class__
                if cls is not Event:
                    if cls is EventRun:
                        # Run-lane entry: drain its trains in place while
                        # the earliest pending item still beats the heap
                        # top and the zero-delay FIFO, then re-key the
                        # remainder. The train being drained is held in
                        # locals (``cur``, its fields, and ``i``, the
                        # index of its next item at ``t``); a train
                        # whose next item comes first swaps in.
                        if (top[0], top[1]) != payload._key:
                            heappop(heap)  # stale key from merge_run
                            continue
                        if payload.cancelled:
                            heappop(heap)
                            queue._discard_run(payload)
                            continue
                        if top[0] > horizon:
                            break
                        heappop(heap)
                        payload._queued = False
                        trains = payload._trains
                        if not trains:
                            # A second entry under the run's key: the run
                            # re-armed under the key of one of its stale
                            # entries and has drained since.
                            continue
                        # The whole drained segment counts as ONE
                        # executed kernel event: one heap pop dispatched
                        # it (that is the point of the run lane).
                        executed += 1
                        t, _, cur = heappop(trains)
                        payload._cur = cur
                        times = cur.times
                        off = cur.offset
                        seq0 = cur.seq
                        call = cur.call
                        args = cur.args
                        each = cur.each
                        n = cur.n
                        i = cur.pos
                        while True:
                            if trains:
                                other = trains[0]
                                if other[0] < t or (
                                    other[0] == t and other[1] < seq0 + i
                                ):
                                    t, _, cur = heapreplace(trains, (t, seq0 + i, cur))
                                    payload._cur = cur
                                    times = cur.times
                                    off = cur.offset
                                    seq0 = cur.seq
                                    call = cur.call
                                    args = cur.args
                                    each = cur.each
                                    n = cur.n
                                    i = cur.pos
                            if payload.cancelled:
                                queue._discard_run(payload)
                                cur = None
                                break
                            if t > horizon:
                                break
                            if nowq:
                                ev = nowq[0]
                                if ev.time < t or (ev.time == t and ev.seq < seq0 + i):
                                    break
                            if heap:
                                top2 = heap[0]
                                if top2[0] < t or (top2[0] == t and top2[1] < seq0 + i):
                                    break
                            cur.pos = i + 1
                            queue._live -= 1
                            self._now = t
                            if each is None:
                                call(*args)
                            else:
                                call(*each[i])
                            i += 1
                            if i < n:
                                t = times[i] + off
                            elif trains:
                                t, _, cur = heappop(trains)
                                payload._cur = cur
                                times = cur.times
                                off = cur.offset
                                seq0 = cur.seq
                                call = cur.call
                                args = cur.args
                                each = cur.each
                                n = cur.n
                                i = cur.pos
                            else:
                                cur = None
                                break
                        payload._cur = None
                        if cur is not None:
                            s = seq0 + i
                            heapq.heappush(trains, (t, s, cur))
                            heapq.heappush(heap, (t, s, payload))
                            payload._queued = True
                            payload._key = (t, s)
                        continue
                    # Resume-lane entry (bare process-resume callable).
                    if top[0] > horizon:
                        break
                    heappop(heap)
                    queue._live -= 1
                    self._now = top[0]
                    executed += 1
                    payload(None, None)
                    continue
                if payload.cancelled:
                    heappop(heap)
                    queue._live -= 1
                    continue
                if top[0] > horizon:
                    break
                heappop(heap)
                queue._live -= 1
                self._now = top[0]
                executed += 1
                payload.fn(*payload.args)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
            for hook in self._end_hooks:
                hook()
        finally:
            self._running = False
            self.events_executed += executed
            if gc_enabled:
                gc.enable()
        return self._now

    def stop(self) -> None:
        """Make the current :meth:`run` return after this callback."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)
