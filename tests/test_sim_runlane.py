"""The kernel run lane: ``EventQueue.push_run`` / ``EventRun``.

A run is a pre-sorted train of future callbacks occupying a single
heap slot (DESIGN.md §7); the event loop drains it in place, peeking
each item against the heap top and the zero-delay FIFO. These tests
pin down the ordering contract (interleaving with ``push``,
``push_batch`` and the nowq at equal timestamps resolves exactly as
individual pushes would), cancellation of an in-flight run, degenerate
trains, and the horizon/``step()`` unbundling paths — plus a
microbenchmark asserting the lane actually collapses kernel events,
and a differential property test against a flat sorted-deque
reference lane.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import EventRun, TrainCursor


def _mark(log, tag):
    return (lambda: log.append(tag),)


class TestPushRunOrdering:
    def test_train_fires_in_time_order_as_one_kernel_event(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run(
            [(t, log.append, (t,)) for t in (0.1, 0.2, 0.3)]
        )
        assert len(run) == 3
        assert run.next_time == 0.1
        sim.run()
        assert log == [0.1, 0.2, 0.3]
        # The whole drained segment costs ONE executed kernel event.
        assert sim.events_executed == 1
        assert len(run) == 0
        assert run.next_time is None

    def test_interleaves_with_heap_events_exactly(self):
        sim = Simulator()
        log = []
        sim.schedule(0.15, log.append, "heap:0.15")
        sim._queue.push_run([
            (0.1, log.append, ("run:0.1",)),
            (0.2, log.append, ("run:0.2",)),
        ])
        sim.schedule(0.25, log.append, "heap:0.25")
        sim.run()
        assert log == ["run:0.1", "heap:0.15", "run:0.2", "heap:0.25"]

    def test_equal_time_ties_resolve_by_insertion_seq_across_lanes(self):
        # seqs are drawn from the shared counter at insertion: a run
        # item inserted *before* an equal-time push fires first, one
        # inserted *after* fires second — just like individual pushes.
        sim = Simulator()
        log = []
        sim._queue.push_run([(0.1, log.append, ("run-first",))])
        sim.schedule_at(0.1, log.append, "push-second")
        sim._queue.push_run([(0.1, log.append, ("run-third",))])
        sim._queue.push_batch([(0.1, log.append, ("batch-fourth",))])
        sim.run()
        assert log == ["run-first", "push-second", "run-third", "batch-fourth"]

    def test_zero_delay_fifo_preempts_at_equal_time(self):
        # A callback scheduled with delay 0 *during* a drain goes to
        # the nowq with a later seq but the same timestamp; the drain
        # must yield to it before any same-time run item inserted
        # after it... and run earlier-seq run items first.
        sim = Simulator()
        log = []

        def spawner():
            log.append("run:first")
            sim.schedule(0.0, log.append, "nowq:child")

        sim._queue.push_run([
            (0.1, spawner, ()),
            (0.1, log.append, ("run:second",)),
            (0.2, log.append, ("run:third",)),
        ])
        sim.run()
        # run:second was inserted (seq-wise) before nowq:child was
        # created, so it fires first; the nowq child still beats the
        # strictly-later 0.2 item.
        assert log == ["run:first", "run:second", "nowq:child", "run:third"]

    def test_empty_train_is_a_noop(self):
        sim = Simulator()
        run = sim._queue.push_run([])
        assert len(run) == 0
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_executed == 0

    def test_singleton_train(self):
        sim = Simulator()
        log = []
        sim._queue.push_run([(0.5, log.append, ("only",))])
        assert sim.pending_events == 1
        final = sim.run()
        assert log == ["only"]
        assert final == 0.5

    def test_non_monotone_train_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim._queue.push_run([
                (0.2, print, ()),
                (0.1, print, ()),
            ])



class TestMergeRun:
    """``EventQueue.merge_run``: sorted merge + stale-key re-keying.

    Merging lets every sender share ONE run (the fluid-lane ingress
    path): new entries may interleave with or precede the pending
    items. When the merged head moves earlier than the queued heap key,
    a fresh heap entry is pushed and the old one goes *stale*; the
    event loop and ``step()`` must skip any popped run entry whose
    ``(time, seq)`` key no longer matches ``run._key``.
    """

    def test_merge_interleaves_by_time(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.1, log.append, (0.1,)), (0.3, log.append, (0.3,))])
        sim._queue.merge_run(run, [(0.2, log.append, (0.2,)), (0.4, log.append, (0.4,))])
        sim.run()
        assert log == [0.1, 0.2, 0.3, 0.4]

    def test_merge_head_earlier_rekeys_and_stale_entry_skipped(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.5, log.append, ("late",))])
        old_key = run._key
        sim._queue.merge_run(run, [(0.1, log.append, ("early",))])
        assert run._key != old_key
        assert run.next_time == 0.1
        # Both heap entries exist; the stale one must be discarded, not
        # double-fire the run.
        sim.run()
        assert log == ["early", "late"]

    def test_stale_entry_skipped_by_step(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.5, log.append, ("late",))])
        sim._queue.merge_run(run, [(0.1, log.append, ("early",))])
        assert sim.step()
        assert log == ["early"]
        assert sim.now == 0.1
        assert sim.pending_events == 1

    def test_merge_equal_time_ties_follow_insertion_order(self):
        # Merged items draw their seq at merge time: an equal-time heap
        # push issued *between* the original train and the merge fires
        # between them, exactly as individual pushes would.
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.1, log.append, ("train",))])
        sim.schedule_at(0.1, log.append, "push")
        sim._queue.merge_run(run, [(0.1, log.append, ("merged",))])
        sim.run()
        assert log == ["train", "push", "merged"]

    def test_merge_into_drained_unqueued_run_requeues(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.1, log.append, ("first",))])
        sim.run()
        assert log == ["first"] and not run._queued
        sim._queue.merge_run(run, [(0.2, log.append, ("second",))])
        sim.run()
        assert log == ["first", "second"]

    def test_merge_while_executing_rearms_with_merged_head(self):
        sim = Simulator()
        log = []
        run = EventRun()

        def merge_more():
            log.append("head")
            sim._queue.merge_run(run, [(0.2, log.append, ("merged",))])

        sim._queue.merge_run(run, [(0.1, merge_more, ()), (0.5, log.append, ("tail",))])
        sim.run()
        assert log == ["head", "merged", "tail"]
        # The merged item drains inside the executing segment.
        assert sim.events_executed == 1

    def test_merge_into_cancelled_run_rejected(self):
        sim = Simulator()
        run = sim._queue.push_run([(0.1, print, ())])
        run.cancel()
        with pytest.raises(SimulationError):
            sim._queue.merge_run(run, [(0.2, print, ())])

    def test_non_monotone_merge_entries_rejected(self):
        sim = Simulator()
        run = sim._queue.push_run([(0.1, print, ())])
        with pytest.raises(SimulationError):
            sim._queue.merge_run(run, [(0.3, print, ()), (0.2, print, ())])

    def test_merged_items_count_one_kernel_event_per_segment(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.1, log.append, (1,)), (0.2, log.append, (2,))])
        sim._queue.merge_run(run, [(0.15, log.append, (1.5,)), (0.3, log.append, (3,))])
        sim.run()
        assert log == [1, 1.5, 2, 3]
        # One contiguous drain segment: one executed kernel event.
        assert sim.events_executed == 1


class TestRunCancellation:
    def test_cancel_before_any_item_fires(self):
        sim = Simulator()
        log = []
        run = sim._queue.push_run([(0.1, log.append, ("a",)), (0.2, log.append, ("b",))])
        run.cancel()
        sim.run()
        assert log == []
        assert sim.pending_events == 0

    def test_cancel_mid_flight_from_a_timer(self):
        # A heap event between two run items cancels the train: the
        # already-executed prefix stands, the tail never fires, and the
        # queue's live count drops to zero.
        sim = Simulator()
        log = []
        run = sim._queue.push_run([
            (0.1, log.append, ("a",)),
            (0.3, log.append, ("b",)),
        ])
        sim.schedule_at(0.2, run.cancel)
        sim.run()
        assert log == ["a"]
        assert sim.pending_events == 0

    def test_cancel_from_inside_an_item_stops_the_rest_of_the_segment(self):
        sim = Simulator()
        log = []
        run = EventRun()
        sim._queue.merge_run(run, [
            (0.1, log.append, ("a",)),
            (0.1, run.cancel, ()),
            (0.1, log.append, ("never",)),
        ])
        sim.run()
        assert log == ["a"]
        assert sim.pending_events == 0

    def test_cancelled_run_skipped_by_step(self):
        sim = Simulator()
        run = sim._queue.push_run([(0.1, print, ())])
        sim.schedule_at(0.4, lambda: None)
        run.cancel()
        assert sim.step()
        assert sim.now == 0.4
        assert sim.pending_events == 0


class TestRunHorizonAndStep:
    def test_horizon_splits_a_train_across_two_runs(self):
        sim = Simulator()
        log = []
        sim._queue.push_run([(t, log.append, (t,)) for t in (0.1, 0.2, 0.3, 0.4)])
        sim.run(until=0.25)
        assert log == [0.1, 0.2]
        assert sim.now == 0.25
        sim.run(until=1.0)
        assert log == [0.1, 0.2, 0.3, 0.4]

    def test_item_exactly_at_horizon_fires(self):
        sim = Simulator()
        log = []
        sim._queue.push_run([(0.1, log.append, (0.1,)), (0.2, log.append, (0.2,))])
        sim.run(until=0.2)
        assert log == [0.1, 0.2]

    def test_step_unbundles_one_item_at_a_time(self):
        sim = Simulator()
        log = []
        sim._queue.push_run([(0.1, log.append, ("a",)), (0.2, log.append, ("b",))])
        assert sim.step() is True
        assert log == ["a"]
        assert sim.now == 0.1
        assert sim.step() is True
        assert log == ["a", "b"]
        assert sim.step() is False

    def test_extend_while_in_flight_rearms_the_train(self):
        # Feed the run from its own last pending item: the appended
        # tail must keep draining within the same lane.
        sim = Simulator()
        log = []
        run = EventRun()

        def feed():
            log.append("head")
            sim._queue.merge_run(run, [(0.3, log.append, ("tail",))])

        sim._queue.merge_run(run, [(0.1, feed, ())])
        sim.run()
        assert log == ["head", "tail"]


class TestRunLaneMicrobench:
    def test_train_collapses_kernel_events(self):
        # 10k callbacks as one train vs 10k heap events: identical
        # callback order and final time, kernel event count 1 vs 10k.
        n = 10_000
        times = [1e-6 * (i + 1) for i in range(n)]

        sim_run = Simulator()
        got_run = []
        sim_run._queue.push_run([(t, got_run.append, (t,)) for t in times])
        sim_run.run()

        sim_evt = Simulator()
        got_evt = []
        sim_evt._queue.push_batch([(t, got_evt.append, (t,)) for t in times])
        sim_evt.run()

        assert got_run == got_evt == times
        assert sim_run.now == sim_evt.now
        assert sim_evt.events_executed == n
        assert sim_run.events_executed == 1


# ----------------------------------------------------------------------
# Differential property test against a flat sorted-deque reference lane
# ----------------------------------------------------------------------

#: Instants are multiples of 1/8, so every sum below is an exact float
#: and equal-time ties across lanes are common.
_GRID = 0.125


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _RefRun:
    """A run as one flat deque of ``(time, seq, fn, args)`` items."""

    def __init__(self):
        self.items = deque()
        self.cancelled = False
        self.queued = False
        self.executing = False
        self.key = None

    def __len__(self):
        return len(self.items)

    @property
    def next_time(self):
        return self.items[0][0] if self.items else None

    def cancel(self):
        self.cancelled = True


class _RefSim:
    """The run lane as one flat sorted deque of items per run, and every
    other event on one ``(time, seq)`` heap (the zero-delay FIFO fires
    in the order one heap gives). A run is one heap entry keyed by its
    head item; a merge re-sorts the pending items and pushes a fresh
    entry when the head moves earlier, leaving the old one stale; the
    drain loop runs items while the head beats the heap top, one
    executed event per drained segment."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._counter = count()
        self._heap = []
        self._live = 0

    @property
    def pending_events(self):
        return self._live

    def schedule(self, delay, fn, *args):
        event = _RefEvent(self.now + delay, next(self._counter), fn, args)
        heappush(self._heap, (event.time, event.seq, event))
        self._live += 1
        return event

    def new_run(self):
        return _RefRun()

    def _arm(self, run):
        head = run.items[0]
        heappush(self._heap, (head[0], head[1], run))
        run.queued = True
        run.key = (head[0], head[1])

    def merge_run(self, run, entries):
        if run.cancelled:
            raise SimulationError("cannot merge into a cancelled run")
        if not entries:
            return
        new = [(time, next(self._counter), fn, args) for time, fn, args in entries]
        self._live += len(new)
        merged = sorted(list(run.items) + new, key=lambda item: item[:2])
        run.items.clear()
        run.items.extend(merged)
        if run.executing:
            return
        head = run.items[0]
        if not run.queued or (head[0], head[1]) != run.key:
            self._arm(run)

    def push_run(self, entries):
        run = _RefRun()
        self.merge_run(run, entries)
        return run

    def _discard(self, run):
        self._live -= len(run.items)
        run.items.clear()
        run.queued = False

    def run(self, until=None):
        horizon = float("inf") if until is None else until
        heap = self._heap
        executed = 0
        while heap:
            time, seq, payload = heap[0]
            if payload.__class__ is _RefRun:
                if (time, seq) != payload.key:
                    heappop(heap)  # stale
                    continue
                if payload.cancelled:
                    heappop(heap)
                    self._discard(payload)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                payload.queued = False
                items = payload.items
                if not items:
                    continue
                payload.executing = True
                executed += 1
                while items:
                    if payload.cancelled:
                        self._discard(payload)
                        break
                    item = items[0]
                    if item[0] > horizon:
                        break
                    if heap and heap[0][:2] < item[:2]:
                        break
                    items.popleft()
                    self._live -= 1
                    self.now = item[0]
                    item[2](*item[3])
                payload.executing = False
                if items and not payload.cancelled:
                    self._arm(payload)
                continue
            if payload.cancelled:
                heappop(heap)
                self._live -= 1
                continue
            if time > horizon:
                break
            heappop(heap)
            self._live -= 1
            self.now = time
            executed += 1
            payload.fn(*payload.args)
        if until is not None and self.now < until:
            self.now = until
        self.events_executed += executed
        return self.now

    def step(self):
        heap = self._heap
        if not self._live:
            return False
        while True:
            if not heap:
                return False  # only cancelled events were left
            time, seq, payload = heappop(heap)
            if payload.__class__ is _RefRun:
                if (time, seq) != payload.key or not payload.items:
                    continue
                if payload.cancelled:
                    self._discard(payload)
                    continue
                item = payload.items.popleft()
                self._live -= 1
                payload.queued = False
                if payload.items:
                    self._arm(payload)
                self.now = item[0]
                self.events_executed += 1
                item[2](*item[3])
                return True
            self._live -= 1
            if payload.cancelled:
                continue
            self.now = time
            self.events_executed += 1
            payload.fn(*payload.args)
            return True


class _Kernel:
    """The kernel under test behind :class:`_RefSim`'s interface."""

    def __init__(self):
        self.sim = Simulator()
        self.queue = self.sim._queue

    now = property(lambda self: self.sim.now)
    events_executed = property(lambda self: self.sim.events_executed)
    pending_events = property(lambda self: self.sim.pending_events)

    def schedule(self, delay, fn, *args):
        return self.sim.schedule(delay, fn, *args)

    def new_run(self):
        return EventRun()

    def merge_run(self, run, train):
        self.queue.merge_run(run, train)

    def push_run(self, train):
        return self.queue.push_run(train)

    def run(self, until=None):
        return self.sim.run(until)

    def step(self):
        return self.sim.step()


class _SharedTrain:
    """A train whose items share one args tuple and read their index
    from a cursor, the way ingress trains do."""

    def __init__(self, tape, tags, ops):
        self.tape = tape
        self.tags = tags
        self.ops = ops
        self.seen = 0


class _Tape:
    """One model's run of a program, and what it observed."""

    def __init__(self, model):
        self.model = model
        self.runs = [model.new_run() for _ in range(2)]
        self.log = []
        self.ids = count()

    def snapshot(self):
        model = self.model
        return (
            model.now,
            model.pending_events,
            tuple((len(run), run.next_time) for run in self.runs),
        )

    def fire(self, tag, ops):
        self.log.append(("fire", tag) + self.snapshot())
        for op in ops:
            self.apply(op)

    def fire_shared(self, train):
        i = train.seen
        train.seen = i + 1
        self.fire(train.tags[i], train.ops[i])

    def _train(self, items, form, offset):
        """The kernel's train (or the reference's entries) for *items*,
        ``(delta, ops)`` pairs, starting now."""
        now = self.model.now
        tags = [next(self.ids) for _ in items]
        times = [now + delta * _GRID for delta, _ops in items]
        if form == "shared":
            train = _SharedTrain(self, tags, [ops for _delta, ops in items])
            if isinstance(self.model, _RefSim):
                return [(t + offset, self.fire_shared, (train,)) for t in times]
            return TrainCursor(times, self.fire_shared, (train,), offset=offset)
        return [
            (t + offset, self.fire, (tag, ops))
            for t, tag, (_delta, ops) in zip(times, tags, items)
        ]

    def apply(self, op):
        kind = op[0]
        model = self.model
        try:
            if kind == "merge":
                _, r, form, offset, items = op
                model.merge_run(self.runs[r % len(self.runs)], self._train(items, form, offset))
            elif kind == "push":
                _, form, offset, items = op
                self.runs.append(model.push_run(self._train(items, form, offset)))
            elif kind == "schedule":
                _, delta, ops = op
                model.schedule(delta * _GRID, self.fire, next(self.ids), ops)
            elif kind == "cancel":
                self.runs[op[1] % len(self.runs)].cancel()
            elif kind == "dead":
                model.schedule(op[1] * _GRID, self.fire, -1, ()).cancel()
        except SimulationError:
            self.log.append(("raised", kind) + self.snapshot())


def _ops(depth):
    """Operations one callback performs; items of the trains they create
    perform operations of their own down to *depth* 0."""
    inner = st.just(()) if depth == 0 else st.lists(_ops(depth - 1), max_size=2).map(tuple)
    items = st.lists(
        st.tuples(st.integers(0, 10), inner), max_size=4
    ).map(lambda pairs: sorted(pairs, key=lambda pair: pair[0]))
    return st.one_of(
        st.tuples(
            st.just("merge"), st.integers(0, 4),
            st.sampled_from(["entries", "shared"]), st.sampled_from([0.0, 0.25]), items,
        ),
        st.tuples(
            st.just("push"), st.sampled_from(["entries", "shared"]),
            st.sampled_from([0.0, 0.25]), items,
        ),
        st.tuples(st.just("schedule"), st.integers(0, 8), inner),
        st.tuples(st.just("cancel"), st.integers(0, 4)),
        st.tuples(st.just("dead"), st.integers(0, 8)),
    )


_PHASES = st.lists(
    st.one_of(st.tuples(st.just("run"), st.integers(0, 32)), st.just(("step",))),
    max_size=5,
)


def _play(model, program, phases):
    tape = _Tape(model)
    for op in program:
        tape.apply(op)
    for phase in phases + [("run", None)]:
        if phase[0] == "step":
            try:
                result = model.step()
            except SimulationError:
                result = "raised"
        else:
            until = None if phase[1] is None else phase[1] * _GRID
            result = model.run(until)
        tape.log.append((phase[0], result, model.events_executed) + tape.snapshot())
    return tape.log


class TestRunLaneMatchesFlatReference:
    """Generated schedules mixing ``push_run`` and ``merge_run``
    (shared-args cursors with an offset, and per-item entries; from
    set-up and from inside executing items), heap and zero-delay
    events with exact-time ties, cancelled events, run cancels from a
    timer and from inside an item, horizon splits and ``step()``: the
    cursor lane must match the flat reference in callback order,
    ``now``, ``events_executed``, ``pending_events``, and every run's
    ``len`` and ``next_time`` at each callback and after each phase."""

    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(_ops(2), min_size=1, max_size=6), phases=_PHASES)
    # A cancelled zero-delay event at a time past the horizon of a run
    # that follows ``step()``: it must not stay counted as pending.
    @example(program=[("schedule", 1, (("dead", 0),))], phases=[("step",), ("run", 0)])
    def test_matches_reference(self, program, phases):
        assert _play(_Kernel(), program, phases) == _play(_RefSim(), program, phases)

    def test_cancel_inside_an_item_before_the_horizon_frees_the_tail(self):
        # The cancelled tail is dropped at once, even when the next item
        # lies past the horizon: nothing stays counted as pending.
        sim = Simulator()
        run = EventRun()
        sim._queue.merge_run(run, [(0.1, run.cancel, ()), (0.5, print, ())])
        sim.run(until=0.3)
        assert sim.pending_events == 0
        assert sim.step() is False
