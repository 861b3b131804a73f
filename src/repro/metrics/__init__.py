"""Metrics: throughput, (f, g)-throughput verification, latency and energy.

Study-level metrics are collected by the columnar :class:`MetricPipeline`
of streaming :class:`MetricReducer` objects, which runs on every backend —
the study kernels included — and under ``workers > 1`` via shard merges.
Per-slot records remain available through ``keep_trace=True``.
"""

from .pipeline import (
    SCALAR_METRICS,
    EnergyReducer,
    FGThroughputReducer,
    LatencyReducer,
    MetricPipeline,
    MetricReducer,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
    WindowedRateReducer,
)
from .throughput import (
    FGThroughputChecker,
    ThroughputReport,
    classical_throughput_series,
    check_fg_throughput,
)
from .latency import LatencySummary, summarize_latencies
from .energy import EnergySummary, summarize_energy

__all__ = [
    "MetricPipeline",
    "MetricReducer",
    "SuccessTimelineReducer",
    "WindowedRateReducer",
    "FGThroughputReducer",
    "LatencyReducer",
    "EnergyReducer",
    "ScalarSummaryReducer",
    "SCALAR_METRICS",
    "FGThroughputChecker",
    "ThroughputReport",
    "classical_throughput_series",
    "check_fg_throughput",
    "LatencySummary",
    "summarize_latencies",
    "EnergySummary",
    "summarize_energy",
]
