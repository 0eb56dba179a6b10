"""Network primitives: packets, five-tuples, links, and sinks.

These are the nouns exchanged between the host model
(:mod:`repro.host`), the SmartNIC model (:mod:`repro.nic`), and the
schedulers (:mod:`repro.core`, :mod:`repro.baselines`).
"""

from .packet import Packet, PacketFactory, DropReason
from .flow import FiveTuple
from .link import Link
from .sink import PacketSink
from .boundary import BoundaryOutbox, RemoteIngress, WireRecord

__all__ = [
    "Packet",
    "PacketFactory",
    "DropReason",
    "FiveTuple",
    "Link",
    "PacketSink",
    "BoundaryOutbox",
    "RemoteIngress",
    "WireRecord",
]
