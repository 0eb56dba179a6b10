"""Unit helpers: bandwidths, packet sizes, packet rates, and time.

The paper mixes several unit systems — user policies in Gbit/s, token
rates in bits/cycle (Eq. 2), throughput tables in Mpps, and Ethernet
line-rate math that must account for framing overhead. This module
centralises the conversions so the rest of the code can work in SI
base units (bits per second, bytes, seconds) without sprinkling magic
constants.

It also provides the ``tc``-style rate parser used by the ``fv``
command front end (``10gbit``, ``500mbit`` ...).
"""

from __future__ import annotations

import re

from .errors import ParseError

__all__ = [
    "KBIT",
    "MBIT",
    "GBIT",
    "ETH_PREAMBLE",
    "ETH_IFG",
    "ETH_CRC",
    "ETH_OVERHEAD",
    "MIN_FRAME",
    "MAX_FRAME",
    "bits",
    "parse_rate",
    "format_rate",
    "format_time",
    "wire_bits",
    "line_rate_pps",
]

#: Multipliers for decimal rate suffixes (networking convention: 1k = 1000).
KBIT = 1_000
MBIT = 1_000_000
GBIT = 1_000_000_000

#: Ethernet preamble + start frame delimiter, bytes on the wire per frame.
ETH_PREAMBLE = 8
#: Minimum inter-frame gap, bytes.
ETH_IFG = 12
#: Frame check sequence, bytes (already part of the L2 frame).
ETH_CRC = 4
#: Total per-frame wire overhead beyond the L2 frame itself.
ETH_OVERHEAD = ETH_PREAMBLE + ETH_IFG
#: Smallest legal Ethernet frame (64 B including CRC).
MIN_FRAME = 64
#: Largest standard frame (1518 B including CRC), as used in Fig. 13.
MAX_FRAME = 1518

_RATE_SUFFIXES = {
    "bit": 1,
    "kbit": KBIT,
    "mbit": MBIT,
    "gbit": GBIT,
    "tbit": 1_000_000_000_000,
    "bps": 8,          # tc: bytes per second
    "kbps": 8 * KBIT,
    "mbps": 8 * MBIT,
    "gbps": 8 * GBIT,
}

_NUMBER_RE = re.compile(r"^([0-9]*\.?[0-9]+)([a-zA-Z]*)$")


def bits(nbytes: float) -> float:
    """Return the number of bits in *nbytes* bytes."""
    return nbytes * 8.0


def _split(text: str, kind: str) -> "tuple[float, str]":
    match = _NUMBER_RE.match(text.strip())
    if match is None:
        raise ParseError(f"cannot parse {kind} value: {text!r}")
    return float(match.group(1)), match.group(2).lower()


def parse_rate(text: str) -> float:
    """Parse a ``tc``-style rate string into bits per second.

    >>> parse_rate("10gbit")
    10000000000.0
    >>> parse_rate("2.5mbit")
    2500000.0

    A bare number is interpreted as bits per second, matching ``tc``.
    """
    value, suffix = _split(text, "rate")
    if not suffix:
        return value
    try:
        return value * _RATE_SUFFIXES[suffix]
    except KeyError:
        raise ParseError(f"unknown rate suffix {suffix!r} in {text!r}") from None


def format_rate(bps: float) -> str:
    """Render a rate in the most natural decimal unit (``9.87Gbit``)."""
    for limit, name in ((GBIT, "Gbit"), (MBIT, "Mbit"), (KBIT, "Kbit")):
        if abs(bps) >= limit:
            return f"{bps / limit:.2f}{name}"
    return f"{bps:.0f}bit"


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit (``12.3us``)."""
    if abs(seconds) >= 1.0:
        return f"{seconds:.3f}s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if abs(seconds) >= 1e-6:
        return f"{seconds * 1e6:.3f}us"
    return f"{seconds * 1e9:.1f}ns"


def wire_bits(frame_bytes: int) -> float:
    """Bits consumed on the wire by one frame of *frame_bytes* (L2 size
    including CRC), accounting for preamble and inter-frame gap."""
    return bits(frame_bytes + ETH_OVERHEAD)


def line_rate_pps(link_bps: float, frame_bytes: int) -> float:
    """Maximum packets per second of *frame_bytes*-sized frames on a link.

    >>> round(line_rate_pps(10 * GBIT, 64) / 1e6, 2)   # classic 14.88 Mpps
    14.88
    """
    return link_bps / wire_bits(frame_bytes)
