"""Generator-based simulation processes.

A process is a Python generator that ``yield``\\ s *waitables*: a
bare ``float``/``int`` delay in seconds, an :class:`At` absolute
time, or a :class:`~repro.sim.events.SimEvent` (a resource
acquisition, a one-shot event, another process).

Example::

    def sender(sim, link):
        for i in range(10):
            yield 0.001                 # pace at 1 ms
            link.transmit(make_packet(i))

    sim.process(sender(sim, link))
    sim.run()

A :class:`Process` is itself a :class:`SimEvent` that succeeds with the
generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from heapq import heappush

from ..errors import ProcessError
from .events import SimEvent

__all__ = ["At", "Process"]


class At:
    """A yield target resuming a process at an *absolute* time.

    ``yield At(t)`` resumes the process at exactly ``t`` (which must
    not lie in the past). This exists for fast paths that pre-compute
    a composite wake-up time from several cost terms: re-expressing it
    as a delay (``t - now``) and letting the kernel add ``now`` back
    would not round-trip bit-identically in floating point, and the
    hot-path contract (DESIGN.md §7) requires resume timestamps to
    match the multi-yield slow path to the last ulp.

    Instances are mutable so one can be reused across the yields of a
    single packet: the kernel reads ``.time`` synchronously.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


class Process(SimEvent):
    """Drives a generator through the simulation kernel.

    Created through :meth:`Simulator.process`; triggering semantics:

    * succeeds with the generator's ``return`` value when it finishes;
    * fails with the exception if the generator raises.
    """

    __slots__ = ("_generator", "_alive", "_send", "_throw")

    def __init__(self, sim: Any, generator: Generator[Any, Any, Any]):
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"sim.process() needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        super().__init__(sim)
        self._generator = generator
        self._alive = True
        # Bound methods cached once: _resume runs per simulated event.
        self._send = generator.send
        self._throw = generator.throw
        # Kick off on the current timestamp, after the caller returns.
        sim.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    # ------------------------------------------------------------------
    def _resume(self, send_value: Any, throw_exc: Any) -> None:
        if not self._alive:
            return
        try:
            if throw_exc is not None:
                yielded = self._throw(throw_exc)
            else:
                yielded = self._send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(getattr(stop, "value", None))
            return
        except Exception as exc:
            self._alive = False
            self.fail(exc)
            return
        # Fast path, inlined from _wait_on: a bare delay schedules the
        # resume directly — no intermediate SimEvent, no subscription,
        # one queued event per delay. The queue insert is open-coded
        # (mirroring Simulator.schedule) and pushes a bare ``(time,
        # seq, resume)`` entry — the resume lane of EventQueue —
        # skipping the Event handle allocation: this is the single most
        # frequent schedule in packet workloads and nothing ever
        # cancels it.
        cls = yielded.__class__
        if cls is float or cls is int:
            if yielded > 0.0:
                sim = self.sim
                queue = sim._queue
                heappush(
                    queue._heap,
                    (sim._now + yielded, next(queue._counter), self._resume),
                )
                queue._live += 1
            else:
                # Zero routes through schedule's now-queue path;
                # negative or NaN raises there.
                self.sim.schedule(yielded, self._resume, None, None)
            return
        if cls is At:
            time = yielded.time
            sim = self.sim
            if time > sim._now:
                queue = sim._queue
                heappush(queue._heap, (time, next(queue._counter), self._resume))
                queue._live += 1
            else:
                # time == now goes to the zero-delay FIFO; a past or
                # NaN time raises inside schedule(), as a negative delay
                # does.
                sim.schedule(time - sim._now, self._resume, None, None)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            # Same fast path for int/float subclasses (bool, numpy-ish
            # scalars) that miss _resume's exact-class check.
            self.sim.schedule(float(yielded), self._resume, None, None)
            return
        if not isinstance(yielded, SimEvent):
            self._alive = False
            exc = ProcessError(
                f"process yielded unsupported object {yielded!r}; "
                "yield a SimEvent or a delay in seconds"
            )
            self.fail(exc)
            return
        if yielded.triggered:
            # Already-triggered event (e.g. a Store.get with an item
            # ready): schedule the resume directly at the same position
            # subscribe() would have queued _on_waited, skipping that
            # intermediate callback frame.
            if yielded.ok:
                self.sim.schedule(0.0, self._resume, yielded.value, None)
            else:
                self.sim.schedule(0.0, self._resume, None, yielded.value)
            return
        yielded.subscribe(self._on_waited)

    def _on_waited(self, event: SimEvent) -> None:
        if not self._alive:
            return
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)
