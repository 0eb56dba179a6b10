"""Binned rate series.

:class:`RateSeries` turns a stream of sized events (packet deliveries)
into a binned rate curve — exactly what the paper's Fig. 3/11
throughput-over-time plots are made of.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

__all__ = ["RateSeries"]


class RateSeries:
    """Bins sized events into fixed windows and reports rates.

    ``add(t, amount)`` accumulates *amount* (e.g. bits) into the bin
    containing *t*; :meth:`samples` yields ``(bin_end_time, rate)``
    where rate is amount-per-second over the window.
    """

    def __init__(self, window: float = 0.1):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._bins: List[float] = []
        self._total = 0.0
        #: Latest event time ever added — marks where the data ends, so
        #: mean_rate() can pro-rate the final, partially-filled bin.
        self._last_time = -math.inf

    @property
    def total(self) -> float:
        """Sum of all amounts ever added."""
        return self._total

    def add(self, time: float, amount: float) -> None:
        """Accumulate *amount* at *time* (times may arrive unordered
        within reason; bin index is computed absolutely).

        Negative times are rejected: simulation time starts at zero,
        and ``int(time / window)`` on a sufficiently negative time
        yields a negative index that Python would silently resolve to
        the *last* bin, corrupting the most recent rate sample.
        """
        if time < 0:
            raise ValueError(f"RateSeries times must be >= 0, got {time}")
        index = int(time / self.window)
        bins = self._bins
        if index >= len(bins):
            bins.extend([0.0] * (index + 1 - len(bins)))
        bins[index] += amount
        self._total += amount
        if time > self._last_time:
            self._last_time = time

    def samples(self) -> Iterable[Tuple[float, float]]:
        """Yield ``(bin_end_time, rate_per_second)`` for every bin."""
        for index, amount in enumerate(self._bins):
            yield ((index + 1) * self.window, amount / self.window)

    def rate_at(self, time: float) -> float:
        """Rate of the bin containing *time* (0 outside recorded data)."""
        index = int(time / self.window)
        if 0 <= index < len(self._bins):
            return self._bins[index] / self.window
        return 0.0

    def mean_rate(self, start: float, end: float) -> float:
        """Average rate over ``[start, end)``.

        Bins only partially covered by the window contribute pro-rata,
        assuming their amount arrived uniformly over the bin's *data
        span* — the full bin for interior bins, but only up to the last
        recorded event time for the final bin (a run that stops mid-bin
        has put all of that bin's amount before the stop). Dividing the
        covered amount by the exact ``end - start`` then yields an
        unbiased mean. The previous implementation counted the final
        bin's amount in full but divided by *whole* bins, so any window
        whose end fell mid-bin systematically under-reported the rate.
        """
        if end <= start:
            return 0.0
        start = max(0.0, start)
        if end <= start:
            return 0.0
        window = self.window
        bins = self._bins
        last = len(bins) - 1
        lo = int(start / window)
        hi = max(lo + 1, int(math.ceil(end / window)))
        total = 0.0
        for index in range(lo, min(hi, len(bins))):
            amount = bins[index]
            if not amount:
                continue
            bin_start = index * window
            # The span the bin's amount is spread over: the final bin's
            # data ends at the last add, not at the bin edge.
            span_end = bin_start + window
            if index == last and self._last_time < span_end:
                span_end = self._last_time
            overlap = min(end, span_end) - max(start, bin_start)
            span = span_end - bin_start
            if overlap >= span:
                total += amount
            elif overlap > 0:
                total += amount * (overlap / span)
        return total / (end - start)
