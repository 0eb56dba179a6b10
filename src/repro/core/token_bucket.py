"""Token buckets and the meter primitive.

This is the paper's Figure 8 machinery. A class's bucket is:

* **replenished** only inside the *update* subprocedure — one core at a
  time, adding ``ΔT × θ`` tokens where ``ΔT`` is the elapsed time since
  the previous update and ``θ`` the class's current token rate;
* **metered** on every packet — an atomic check-and-subtract that
  colours the packet green (enough tokens, consume them) or red (leave
  the bucket untouched). On the NFP this maps to the hardware meter
  instruction [28]; here it is a plain method whose *cost* is charged
  by the NIC model.

Units: the paper expresses token rate in bits/cycle (Eq. 2,
``θ = b / f``). We keep tokens in **bits** and rates in **bits per
second**, which is the same quantity with the core frequency ``f``
factored out — the conversion is exact, not an approximation.
"""

from __future__ import annotations

import enum

__all__ = ["MeterColor", "TokenBucket"]


class MeterColor(enum.Enum):
    """Result of metering a packet against a bucket (Eq. 1)."""

    GREEN = "green"
    RED = "red"


class TokenBucket:
    """A single token bucket with decoupled replenish/meter phases.

    Parameters
    ----------
    rate_bps:
        Token fill rate θ in bits per second. May be changed at every
        update epoch via :attr:`rate_bps` — that is exactly how the
        condition templates steer bandwidth.
    burst_bits:
        Bucket capacity. The paper sizes bursts to roughly one update
        interval of tokens; callers pick this (see
        :meth:`for_interval`).
    start_full:
        Whether the bucket starts at capacity (a freshly configured
        class may burst immediately, like HTB).
    """

    __slots__ = ("rate_bps", "capacity", "tokens", "last_refill", "greens", "reds")

    def __init__(self, rate_bps: float, burst_bits: float, start_full: bool = True, now: float = 0.0):
        if burst_bits <= 0:
            raise ValueError(f"burst must be positive, got {burst_bits}")
        if rate_bps < 0:
            raise ValueError(f"rate must be non-negative, got {rate_bps}")
        self.rate_bps = rate_bps
        self.capacity = burst_bits
        self.tokens = burst_bits if start_full else 0.0
        self.last_refill = now
        #: Packets coloured green / red (lifetime counters).
        self.greens = 0
        self.reds = 0

    @classmethod
    def for_interval(
        cls, rate_bps: float, interval: float, min_burst_bits: float = 12_336.0, now: float = 0.0
    ) -> "TokenBucket":
        """A bucket whose burst holds *interval* seconds of tokens.

        The floor default (12336 bits = one 1518 B frame + overhead)
        guarantees even a zero-rate class can be re-rated without a
        degenerate capacity.
        """
        burst = max(min_burst_bits, rate_bps * interval)
        return cls(rate_bps, burst, now=now)

    # ------------------------------------------------------------------
    # update-phase operations (run under the class's update lock)
    # ------------------------------------------------------------------
    def refill(self, now: float) -> float:
        """Add ``ΔT × θ`` tokens, clamped to capacity; returns the
        tokens actually added. ΔT is measured from the previous refill
        (the recorded-timestamp scheme of Fig. 8)."""
        dt = now - self.last_refill
        if dt <= 0:
            return 0.0
        before = self.tokens
        self.tokens = min(self.capacity, self.tokens + self.rate_bps * dt)
        self.last_refill = now
        return self.tokens - before

    def set_rate(self, rate_bps: float, now: float) -> None:
        """Re-rate the bucket: settle tokens at the old θ up to *now*,
        then switch to the new rate (so a rate change never retro-
        actively grants or revokes tokens).

        Rejects negative rates like ``__init__`` — silently clamping
        here would hide a caller's arithmetic bug as a stalled class.
        """
        if rate_bps < 0:
            raise ValueError(f"rate must be non-negative, got {rate_bps}")
        self.refill(now)
        self.rate_bps = rate_bps

    def resize(self, burst_bits: float) -> None:
        """Change capacity, clamping current tokens into the new size."""
        if burst_bits <= 0:
            raise ValueError(f"burst must be positive, got {burst_bits}")
        self.capacity = burst_bits
        self.tokens = min(self.tokens, burst_bits)

    def drain(self) -> None:
        """Empty the bucket (expired-status restoration)."""
        self.tokens = 0.0

    # ------------------------------------------------------------------
    # meter-phase operations (atomic, every packet, no lock)
    # ------------------------------------------------------------------
    def meter(self, size_bits: float) -> MeterColor:
        """Colour a packet of *size_bits*: green consumes, red doesn't.

        This is all-or-nothing, like the hardware meter instruction —
        a red packet leaves the token count untouched (Fig. 8 step 5).
        """
        if self.tokens >= size_bits:
            self.tokens -= size_bits
            self.greens += 1
            return MeterColor.GREEN
        self.reds += 1
        return MeterColor.RED

    def peek(self, size_bits: float) -> MeterColor:
        """The colour :meth:`meter` would return, without consuming."""
        return MeterColor.GREEN if self.tokens >= size_bits else MeterColor.RED

    def consume(self, size_bits: float) -> None:
        """Unconditionally drain *size_bits* tokens (floored at zero).

        This is the *measurement* drain of root/interior classes: they
        never drop, their buckets simply track how much of the granted
        rate the subtree has used, so the unconsumed remainder can be
        moved to the shadow bucket at the next update epoch.
        """
        self.tokens = max(0.0, self.tokens - size_bits)

    def withdraw_excess(self, keep_bits: float) -> float:
        """Remove and return every token above *keep_bits*.

        Used by the update subprocedure to *transfer* a class's
        unconsumed tokens into its shadow bucket — a move, not a copy,
        so the total granted bandwidth stays conserved.
        """
        excess = self.tokens - keep_bits
        if excess <= 0:
            return 0.0
        self.tokens = keep_bits
        return excess

    def deposit(self, amount_bits: float) -> float:
        """Add externally sourced tokens, clamped to capacity; returns
        the amount actually accepted (the shadow side of the transfer)."""
        if amount_bits <= 0:
            return 0.0
        accepted = min(amount_bits, self.capacity - self.tokens)
        if accepted > 0:
            self.tokens += accepted
        return accepted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TokenBucket θ={self.rate_bps:.0f}bps "
            f"{self.tokens:.0f}/{self.capacity:.0f}b g={self.greens} r={self.reds}>"
        )
