"""FlowValve reproduction: packet scheduling offloaded on NP-based
SmartNICs (ICDCS 2022), rebuilt as a simulation-first Python library.

Quick tour (see README.md for the full map):

>>> from repro import FlowValve, SchedulingParams
>>> valve = FlowValve.from_script('''
...     fv qdisc add dev eth0 root handle 1: fv default 0
...     fv class add dev eth0 parent 1: classid 1:1 fv rate 10gbit ceil 10gbit
...     fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2 borrow 1:20
...     fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1 borrow 1:10
...     fv filter add dev eth0 parent 1: match app=A flowid 1:10
...     fv filter add dev eth0 parent 1: match app=B flowid 1:20
... ''', link_rate_bps=10e9)

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event simulation kernel.
``repro.net``
    Packets, five-tuples, links, sinks.
``repro.nic``
    The NP-based SmartNIC model (micro-engine workers, cycle budgets,
    rings, reorder system, traffic manager).
``repro.tc``
    Traffic-control front end: ``fv``/``tc`` parser, classifier,
    validation.
``repro.core``
    FlowValve itself: scheduling trees, token/shadow buckets,
    condition templates, Algorithm 1, labeling, offload compilation.
``repro.baselines``
    Linux PRIO/HTB with the kernel execution model, and the DPDK QoS
    Scheduler.
``repro.host``
    End-host model: CPU accounting, ack-clocked AIMD TCP, workload
    generators.
``repro.topology``
    Declarative construction: ``Topology`` + ``SimulationSpec`` — the
    one public way to build and run a simulation (single- or
    multi-domain, sharded across worker processes).
``repro.experiments``
    The evaluation harness — one module per paper figure/table.
"""

from ._lazy import lazy_exports
from .core import (
    FlowValveFrontend,
    SchedulingFunction,
    SchedulingParams,
    SchedulingTree,
    Verdict,
)
from .net import FiveTuple, Link, Packet, PacketFactory, PacketSink
from .nic import NicConfig, NicPipeline
from .sim import Simulator
from .tc import PolicyConfig, parse_script, validate_policy
from .topology import ScaledSetup
from .units import format_rate, parse_rate

__version__ = "1.0.0"

__all__ = [
    "FlowValve",
    "FlowValveFrontend",
    "SchedulingFunction",
    "SchedulingParams",
    "SchedulingTree",
    "Verdict",
    "compile_offload",
    "FiveTuple",
    "Link",
    "Packet",
    "PacketFactory",
    "PacketSink",
    "NicConfig",
    "NicPipeline",
    "Scheduler",
    "build_scheduler",
    "scheduler_names",
    "ShardPlan",
    "Simulator",
    "Topology",
    "SimulationSpec",
    "SimulationResult",
    "DomainSummary",
    "ScaledSetup",
    "PolicyConfig",
    "parse_script",
    "validate_policy",
    "format_rate",
    "parse_rate",
    "__version__",
]

# Loaded on first use, so a run compiles only the modules it executes
# (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core": ("FlowValve",),
    ".core.offload": ("compile_offload",),
    ".sched": ("Scheduler", "build_scheduler", "scheduler_names"),
    ".sim": ("ShardPlan",),
    ".topology": ("DomainSummary", "SimulationResult", "SimulationSpec", "Topology"),
})
