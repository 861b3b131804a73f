"""Serializable metric-pipeline specs.

A :class:`PipelineSpec` is the JSON form of a
:class:`~repro.metrics.MetricPipeline`: an ordered list of ``{"kind",
"params"}`` reducer entries, validated against the :data:`METRIC_REDUCERS`
registry exactly like protocols and adversaries.  ``spec.build()`` produces
a live pipeline; ``MetricPipeline.to_spec()`` goes the other way for every
registered reducer kind.

Example::

    {"reducers": [
        {"kind": "success-timeline", "params": {}},
        {"kind": "windowed-rate", "params": {"window": 64}},
        {"kind": "scalar", "params": {"metric": "successes"}}
    ]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import SpecError
from ..functions import RateFunction
from ..metrics.pipeline import (
    EnergyReducer,
    FGThroughputReducer,
    LatencyReducer,
    MetricPipeline,
    MetricReducer,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
    WindowedRateReducer,
)
from .rates import rate_function_from_spec, rate_function_to_spec
from .registry import SpecRegistry

__all__ = ["METRIC_REDUCERS", "PipelineSpec"]

METRIC_REDUCERS = SpecRegistry("metric reducer")


@METRIC_REDUCERS.register("success-timeline")
def _success_timeline():
    """per-trial success-slot timelines from the successes column"""
    return SuccessTimelineReducer()


@METRIC_REDUCERS.register("windowed-rate")
def _windowed_rate(window):
    """success counts over consecutive fixed-length windows"""
    return WindowedRateReducer(int(window))


@METRIC_REDUCERS.register("fg-throughput")
def _fg_throughput(f, g, slack=1.0, min_prefix=16, additive_grace=0.0):
    """Definition 1.1 verdicts per trial via the columnar checker"""
    return FGThroughputReducer(
        f=rate_function_from_spec(f),
        g=rate_function_from_spec(g),
        slack=float(slack),
        min_prefix=int(min_prefix),
        additive_grace=float(additive_grace),
    )


@METRIC_REDUCERS.register("latency")
def _latency():
    """slots-to-success distribution over all nodes of all trials"""
    return LatencyReducer()


@METRIC_REDUCERS.register("energy")
def _energy():
    """per-node broadcast-count (energy) distribution"""
    return EnergyReducer()


@METRIC_REDUCERS.register("scalar")
def _scalar(metric):
    """mean/std/min/max of one named per-trial scalar"""
    return ScalarSummaryReducer(str(metric))


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _serialize_params(reducer: MetricReducer) -> Dict[str, Any]:
    """Reducer constructor params with rate functions folded to their specs."""
    params: Dict[str, Any] = {}
    for key, value in reducer.spec_params().items():
        if isinstance(value, RateFunction):
            value = rate_function_to_spec(value)
        params[key] = value
    return params


@dataclass(frozen=True)
class PipelineSpec:
    """Ordered, JSON-round-trippable description of a metric pipeline."""

    reducers: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        normalized: List[Dict[str, Any]] = []
        for entry in self.reducers:
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise SpecError(
                    f"reducer entry must be a mapping with a 'kind': {entry!r}"
                )
            unknown = sorted(set(entry) - {"kind", "params"})
            if unknown:
                raise SpecError(
                    f"unknown reducer entry field(s): {', '.join(unknown)}"
                )
            kind = str(entry["kind"])
            params = entry.get("params") or {}
            METRIC_REDUCERS.validate(kind, params)
            normalized.append({"kind": kind, "params": dict(params)})
        if not normalized:
            raise SpecError("a pipeline spec needs at least one reducer")
        object.__setattr__(self, "reducers", tuple(normalized))

    def __hash__(self) -> int:
        # Entries hold dicts, so the generated frozen-dataclass hash would
        # raise; hash the canonical serialized form (consistent with __eq__).
        return hash(_canonical(self.to_dict()))

    # ------------------------------------------------------------- building

    def build(self) -> MetricPipeline:
        """A fresh :class:`~repro.metrics.MetricPipeline` for this spec."""
        return MetricPipeline(
            [
                METRIC_REDUCERS.build(entry["kind"], entry["params"])
                for entry in self.reducers
            ]
        )

    @classmethod
    def from_pipeline(cls, pipeline: MetricPipeline) -> "PipelineSpec":
        """Serialize a live pipeline (every registered reducer kind round-trips)."""
        entries = []
        for reducer in pipeline.reducers:
            if reducer.kind not in METRIC_REDUCERS:
                raise SpecError(
                    f"reducer kind {reducer.kind!r} is not registered and "
                    "cannot be serialized"
                )
            entries.append(
                {"kind": reducer.kind, "params": _serialize_params(reducer)}
            )
        return cls(reducers=tuple(entries))

    @classmethod
    def of(cls, *reducers: MetricReducer) -> "PipelineSpec":
        """Convenience: spec of a pipeline assembled from live reducers."""
        return cls.from_pipeline(MetricPipeline(list(reducers)))

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reducers": [
                {"kind": entry["kind"], "params": dict(entry["params"])}
                for entry in self.reducers
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"pipeline spec must be a mapping: {data!r}")
        unknown = sorted(set(data) - {"reducers"})
        if unknown:
            raise SpecError(f"unknown pipeline spec field(s): {', '.join(unknown)}")
        reducers = data.get("reducers")
        if not isinstance(reducers, Sequence) or isinstance(reducers, str):
            raise SpecError("pipeline spec 'reducers' must be a list")
        return cls(reducers=tuple(reducers))

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid pipeline spec JSON: {exc}") from exc
        return cls.from_dict(data)
