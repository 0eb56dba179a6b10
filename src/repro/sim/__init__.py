"""Deterministic discrete-event simulation kernel.

This is the substrate every other subsystem runs on: the SmartNIC
model, the host/TCP model, and the experiment harness all schedule
work through one :class:`~repro.sim.simulator.Simulator`.

Two programming styles are supported and interoperate freely:

* **Callbacks** — ``sim.schedule(delay, fn, *args)`` for hot paths
  (per-packet events) where generator overhead matters.
* **Processes** — generator functions that ``yield`` a delay, an
  :class:`~repro.sim.process.At` time or a
  :class:`~repro.sim.events.SimEvent` (a one-shot event, a
  :class:`~repro.sim.resources.Lock` acquisition, a
  :class:`~repro.sim.resources.Store` get) for sequential logic such
  as the NIC's workers and traffic drivers.

Determinism: events at equal timestamps fire in schedule order, and all
randomness flows through :class:`~repro.sim.randomness.RandomStreams`,
so a seeded run is exactly reproducible.
"""

from .._lazy import lazy_exports
from .events import Event, EventQueue, SimEvent
from .simulator import Simulator
from .process import At, Process
from .resources import Lock, Store
from .randomness import RandomStreams
from .trace import Tracer, NullTracer, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "SimEvent",
    "Simulator",
    "At",
    "Process",
    "BoundaryWire",
    "ShardError",
    "ShardPlan",
    "Lock",
    "Store",
    "RandomStreams",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]

# The sharded engine (and multiprocessing with it) loads on first use:
# a single-domain run never executes it (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".shard": ("BoundaryWire", "ShardError", "ShardPlan"),
})
