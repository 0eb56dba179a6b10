"""The public simulation-construction API (DESIGN.md §11).

Declare a world with :class:`Topology` (NICs, hosts, apps, wires),
bind it to a :class:`ScaledSetup` in a :class:`SimulationSpec`, and
``run()`` it — inline, or sharded over worker processes via the
conservative-window engine in :mod:`repro.sim.shard`:

>>> from repro import ScaledSetup, SimulationSpec, Topology
>>> topo = (Topology()
...         .nic("n0", policy=policy)
...         .host("h0", nic="n0")
...         .app("h0", "KVS", demand=((0.0, 30.0, 9e9),)))
>>> result = SimulationSpec(topology=topo, setup=ScaledSetup()).run()

The Fig. 11 timelines, the scheduler crossbar, the fabric sweep and
``fv simulate`` are thin adapters over this package (:func:`timeline`
is the single-NIC one the timelines share).
"""

from .._lazy import lazy_exports
from .setup import ScaledSetup

__all__ = [
    "AppSpec",
    "DomainSpec",
    "DomainSummary",
    "HostSpec",
    "NicSpec",
    "ScaledSetup",
    "SimulationResult",
    "SimulationSpec",
    "Topology",
    "WireSpec",
    "timeline",
]

# ``build``, ``spec`` and ``result`` load on first use: the figure
# runners that construct their own simulator never execute them
# (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".build": ("timeline",),
    ".result": ("DomainSummary", "SimulationResult"),
    ".spec": (
        "AppSpec",
        "DomainSpec",
        "HostSpec",
        "NicSpec",
        "SimulationSpec",
        "Topology",
        "WireSpec",
    ),
})
