"""Measurement utilities: rate series, rate meters, latency summaries,
CPU accounting, and table rendering for the benchmark reports."""

from .timeseries import RateSeries
from .rates import EwmaRate, WindowedRate
from .latency import (
    LatencySummary,
    summarize_latencies,
    percentile,
    percentile_sorted,
    jitter,
)
from .sketch import QuantileSketch, WindowedRateSketch
from .cpu import CoreUsage, CpuReport
from .metrics import (
    Counter,
    MetricsRegistry,
    MetricsSampler,
    NullMetricsRegistry,
    write_jsonl,
)
from .perf import HotpathResult, measure_run
from .report import Table, render_table

__all__ = [
    "Counter",
    "MetricsRegistry",
    "MetricsSampler",
    "NullMetricsRegistry",
    "write_jsonl",
    "HotpathResult",
    "measure_run",
    "RateSeries",
    "EwmaRate",
    "WindowedRate",
    "LatencySummary",
    "summarize_latencies",
    "percentile",
    "percentile_sorted",
    "jitter",
    "QuantileSketch",
    "WindowedRateSketch",
    "CoreUsage",
    "CpuReport",
    "Table",
    "render_table",
]
