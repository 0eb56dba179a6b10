"""Five-tuples: the flow identity packets carry.

Filter rules in :mod:`repro.tc` classify packets on their five-tuple,
and the FlowValve exact-match flow cache (:mod:`repro.core.flow_cache`)
memoises that classification per flow — exactly the Netronome EMC the
paper's Observation 2 describes.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FiveTuple"]

#: Conventional protocol numbers used by the workloads.
PROTO_TCP = 6
PROTO_UDP = 17


class FiveTuple(NamedTuple):
    """The classic connection identifier.

    Addresses are plain strings (``"10.0.0.1"``) — the model never
    routes, it only matches, so structured address types would add
    weight without behaviour.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP

    def reversed(self) -> "FiveTuple":
        """The reverse-direction tuple (for ACK paths)."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def __str__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        return f"{proto}:{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
