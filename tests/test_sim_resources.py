"""Tests for simulation resources: Lock, Store."""

import pytest

from repro.errors import CapacityError, SimulationError
from repro.sim import Lock, Simulator, Store


class TestLock:
    def test_uncontended_acquire_is_immediate(self):
        sim = Simulator()
        lock = Lock(sim)
        log = []

        def proc():
            yield lock.acquire()
            log.append(sim.now)
            lock.release()

        sim.process(proc())
        sim.run()
        assert log == [0.0]
        # Released: the next acquire is immediate and uncontended.
        assert lock.acquire().triggered
        assert lock.contended_acquisitions == 0

    def test_fifo_ordering_under_contention(self):
        sim = Simulator()
        lock = Lock(sim)
        order = []

        def proc(name, hold):
            yield lock.acquire()
            order.append((name, sim.now))
            yield hold
            lock.release()

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.0))
        sim.process(proc("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]

    def test_contention_statistics(self):
        sim = Simulator()
        lock = Lock(sim)

        def proc(hold):
            yield lock.acquire()
            yield hold
            lock.release()

        sim.process(proc(2.0))
        sim.process(proc(2.0))
        sim.run()
        assert lock.acquisitions == 2
        assert lock.contended_acquisitions == 1
        assert lock.total_wait_time == pytest.approx(2.0)

    def test_release_unheld_raises(self):
        sim = Simulator()
        lock = Lock(sim)
        with pytest.raises(SimulationError):
            lock.release()


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.try_put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((item, sim.now))

        sim.process(getter())
        sim.schedule(3.0, store.try_put, "late")
        sim.run()
        assert got == [("late", 3.0)]

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.try_put(i)
        assert [store.try_get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_counters(self):
        sim = Simulator()
        store = Store(sim)
        store.try_put("a")
        store.try_put("b")
        store.try_get()
        assert store.total_put == 2
        assert store.total_got == 1

    def test_negative_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(CapacityError):
            Store(sim, capacity=-1)

    def test_direct_handoff_to_waiting_getter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert store.try_put("direct")
        sim.run()
        assert got == ["direct"]
        assert len(store) == 0
