"""Tests for the discrete-event simulation kernel (repro.sim)."""

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_delay_and_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_horizon_rejected(self):
        # No event time exceeds a NaN horizon, so unchecked, a run with
        # a rescheduling event never returns. The tick stops the run
        # after 1,000 reschedules: a missing check fails here instead of
        # hanging.
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 1000:
                sim.schedule(1.0, tick)
            else:
                sim.stop()

        sim.schedule(1.0, tick)
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert ticks == []
        # The rejected call left the simulator usable.
        assert sim.run(until=3.0) == 3.0
        assert ticks == [1.0, 2.0, 3.0]

    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_step_skips_cancelled_events(self):
        # Cancelled events stay counted until popped: step() must run
        # the live event behind them, then report an empty queue.
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "zero").cancel()
        sim.schedule(1.0, fired.append, "heap").cancel()
        sim.schedule(2.0, fired.append, "live")
        sim.schedule(3.0, fired.append, "tail").cancel()
        assert sim.pending_events == 4
        assert sim.step() is True
        assert fired == ["live"] and sim.now == 2.0
        assert sim.step() is False
        assert sim.pending_events == 0
        assert sim.events_executed == 1

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        end = sim.run(until=3.0)
        assert end == 3.0
        assert sim.now == 3.0
        # The event is still pending and fires on the next run.
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 10.0

    def test_stop_aborts_run(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: pytest.fail("should not run"))
        sim.run()
        assert sim.now == 1.0

    def test_zero_delay_runs_after_current_callback(self):
        sim = Simulator()
        order = []

        def first():
            sim.schedule(0.0, order.append, "nested")
            order.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestProcesses:
    def test_process_yields_delays(self):
        sim = Simulator()
        ticks = []

        def proc():
            for _ in range(3):
                yield 0.5
                ticks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert ticks == [0.5, 1.0, 1.5]

    def test_process_return_value_delivered(self):
        sim = Simulator()

        def child():
            yield 1.0
            return 42

        results = []

        def parent():
            value = yield sim.process(child())
            results.append(value)

        sim.process(parent())
        sim.run()
        assert results == [42]

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield 0.1
            raise ValueError("boom")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["boom"]

    def test_yielding_garbage_fails_process(self):
        sim = Simulator()

        def bad():
            yield "not a waitable"

        proc = sim.process(bad())
        sim.run()
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, ProcessError)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.process(lambda: None)

    def test_waiting_on_plain_event(self):
        sim = Simulator()
        gate = sim.event()
        woke = []

        def waiter():
            value = yield gate
            woke.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(2.0, gate.succeed, "opened")
        sim.run()
        assert woke == [(2.0, "opened")]


class TestCompositeEvents:
    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_late_subscription_still_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        seen = []
        ev.subscribe(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["early"]


class TestRandomStreams:
    def test_streams_are_stable_per_name(self):
        a = Simulator(seed=99).random.stream("tcp").random()
        b = Simulator(seed=99).random.stream("tcp").random()
        assert a == b

    def test_streams_independent_of_creation_order(self):
        s1 = Simulator(seed=5)
        s1.random.stream("x")
        first = s1.random.stream("tcp").random()
        s2 = Simulator(seed=5)
        second = s2.random.stream("tcp").random()  # no "x" stream created
        assert first == second

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).random.stream("tcp").random()
        b = Simulator(seed=2).random.stream("tcp").random()
        assert a != b

    def test_reset_replays_sequence(self):
        sim = Simulator(seed=3)
        rng = sim.random.stream("w")
        seq = [rng.random() for _ in range(4)]
        sim.random.reset()
        assert [rng.random() for _ in range(4)] == seq
