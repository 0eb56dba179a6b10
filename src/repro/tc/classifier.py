"""Packet classification against filter rules.

Implements the *labeling function*'s matching step (paper Fig. 5): an
egress packet is compared against the installed filter rules in
priority order; the first match yields the leaf class id. The
exact-match flow cache that accelerates this on the Netronome lives in
:mod:`repro.core.flow_cache` — this module is the slow path it caches.

Supported match fields (a practical subset of ``tc`` u32/flower):

========  =================================================
field      meaning
========  =================================================
src        source IP, exact string match
dst        destination IP, exact string match
sport      source port (int, or ``lo-hi`` range)
dport      destination port (int, or ``lo-hi`` range)
proto      ``tcp`` / ``udp`` / protocol number
vf         SR-IOV virtual function index the packet entered on
app        application tag (testbed convenience, like an fwmark)
========  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ValidationError
from ..net.packet import Packet
from .ast import FilterSpec

__all__ = ["MatchSpec", "FilterRule", "Classifier"]

_PROTO_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}


def _parse_port(value: str) -> Tuple[int, int]:
    """Parse ``"80"`` or ``"8000-8999"`` into an inclusive range."""
    if "-" in value:
        lo_text, _, hi_text = value.partition("-")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(value)
    if lo < 0 or hi > 65535 or lo > hi:
        raise ValidationError(f"bad port match {value!r}")
    return lo, hi


@dataclass(frozen=True)
class MatchSpec:
    """Compiled match fields; ``None`` means wildcard."""

    src: Optional[str] = None
    dst: Optional[str] = None
    sport: Optional[Tuple[int, int]] = None
    dport: Optional[Tuple[int, int]] = None
    proto: Optional[int] = None
    vf: Optional[int] = None
    app: Optional[str] = None

    @classmethod
    def compile(cls, fields: Dict[str, str]) -> "MatchSpec":
        """Compile a raw field dict from a :class:`FilterSpec`."""
        known = {"src", "dst", "sport", "dport", "proto", "vf", "app"}
        unknown = set(fields) - known
        if unknown:
            raise ValidationError(f"unknown match field(s): {sorted(unknown)}")
        proto: Optional[int] = None
        if "proto" in fields:
            raw = fields["proto"].lower()
            proto = _PROTO_NAMES.get(raw)
            if proto is None:
                try:
                    proto = int(raw)
                except ValueError:
                    raise ValidationError(f"bad proto match {raw!r}") from None
        return cls(
            src=fields.get("src"),
            dst=fields.get("dst"),
            sport=_parse_port(fields["sport"]) if "sport" in fields else None,
            dport=_parse_port(fields["dport"]) if "dport" in fields else None,
            proto=proto,
            vf=int(fields["vf"]) if "vf" in fields else None,
            app=fields.get("app"),
        )

    def matches(self, packet: Packet) -> bool:
        """True if every non-wildcard field matches *packet*."""
        flow = packet.flow
        if self.src is not None and flow.src_ip != self.src:
            return False
        if self.dst is not None and flow.dst_ip != self.dst:
            return False
        if self.sport is not None and not (self.sport[0] <= flow.src_port <= self.sport[1]):
            return False
        if self.dport is not None and not (self.dport[0] <= flow.dst_port <= self.dport[1]):
            return False
        if self.proto is not None and flow.proto != self.proto:
            return False
        if self.vf is not None and packet.vf_index != self.vf:
            return False
        if self.app is not None and packet.app != self.app:
            return False
        return True


@dataclass(frozen=True)
class FilterRule:
    """A compiled filter: match spec + target leaf class + priority."""

    match: MatchSpec
    flowid: str
    prio: int


class Classifier:
    """Ordered rule list with first-match-wins semantics.

    Rules are sorted by ``(prio, insertion order)`` — identical to the
    kernel's filter chain walk. :meth:`classify` returns the leaf class
    id or ``None`` when nothing matched (the caller applies the qdisc's
    ``default`` class or drops).
    """

    def __init__(self, filters: Optional[List[FilterSpec]] = None):
        self._rules: List[FilterRule] = []
        #: Number of classify calls (slow-path lookups).
        self.lookups = 0
        #: Calls that fell through every rule.
        self.misses = 0
        if filters:
            for spec in filters:
                self.add(spec)

    def add(self, spec: FilterSpec) -> FilterRule:
        """Compile and install one filter spec."""
        rule = FilterRule(MatchSpec.compile(spec.match), spec.flowid, spec.prio)
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.prio)  # stable: ties keep insert order
        return rule

    def __len__(self) -> int:
        return len(self._rules)

    def classify(self, packet: Packet) -> Optional[str]:
        """Leaf class id for *packet*, or ``None`` on no match."""
        return self.count(self.first_match(packet))

    def count(self, leaf_id: Optional[str]) -> Optional[str]:
        """Count one lookup whose rule walk (:meth:`first_match`) gave
        *leaf_id*, and return it: :meth:`classify` for a caller that
        already walked the rules."""
        self.lookups += 1
        if leaf_id is None:
            self.misses += 1
        return leaf_id

    def first_match(self, packet: Packet) -> Optional[str]:
        """:meth:`classify` without touching ``lookups``/``misses``: a
        side-effect-free probe (the NIC fluid lane's miss pre-walk)."""
        for rule in self._rules:
            if rule.match.matches(packet):
                return rule.flowid
        return None
