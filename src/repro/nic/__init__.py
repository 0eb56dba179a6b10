"""The NP-based SmartNIC model (paper §III-B, Fig. 4).

A discrete-event model of a Netronome-style network processor: a
micro-engine worker pool with run-to-completion packet processing,
per-packet cycle budgets calibrated to the paper's Fig. 13, a bounded
dispatch queue, a bounded packet buffer pool with a manager-core
recycler, a reorder system, a shared Tx ring feeding the traffic
manager's FIFO queues, and a MAC that serialises frames onto the wire.

FlowValve plugs into each worker's processing routine as a
:class:`~repro.nic.apps.NicApp`; the same pipeline runs a pass-through
app to measure the NIC's raw forwarding behaviour (the paper's
"disable FlowValve to simply forward packets" datum).
"""

from .config import CycleCosts, NicConfig
from .rings import TxRing
from .reorder import ReorderBuffer
from .buffer_pool import BufferPool
from .traffic_manager import TrafficManager
from .apps import FlowValveNicApp, ForwardAllApp, NicApp
from .pipeline import NicPipeline

__all__ = [
    "CycleCosts",
    "NicConfig",
    "TxRing",
    "ReorderBuffer",
    "BufferPool",
    "TrafficManager",
    "NicApp",
    "ForwardAllApp",
    "FlowValveNicApp",
    "NicPipeline",
]
