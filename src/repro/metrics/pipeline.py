"""Streaming, mergeable metric reducers over columnar results.

The study kernels never materialize a ``SlotRecord`` per slot, and per-slot
records cannot cheaply cross a worker process boundary.  A
:class:`MetricPipeline` therefore collects study metrics with *reducers*
that consume each trial's **columnar** counters and outcome surface after
the trial finishes:

* :meth:`MetricReducer.reduce` — the columnar fast path: one call per trial
  with the trial's :class:`~repro.sim.results.PrefixCounters` and its
  :class:`~repro.sim.results.SimulationResult`, reduced with numpy array
  arithmetic rather than per-slot Python;
* :meth:`MetricReducer.merge` — combines the partial state of another
  reducer of the same shape, which is what lets a pipeline run sharded
  under ``workers > 1``: each worker reduces its contiguous shard, the
  parent merges the shard partials in trial order, and the result is
  identical to a serial reduction (enforced by the property suite);
* :meth:`MetricReducer.value` — the finalized metric, computable at any
  point without destroying state.

Because reducers never need per-slot records, a pipeline runs on *every*
backend — the study kernels included — with exact parity to the per-slot
records a ``keep_trace=True`` run retains.  Reducer state is O(successes), O(nodes) or
O(trials) — never O(horizon × trials); the only horizon-sized allowance is
the FG reducer's bounded cache of ``f``/``g`` sample vectors — which is
what makes the runner's *streaming* mode possible: reduce each trial, then
drop its prefix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..functions import RateFunction
from ..sim.results import PrefixCounters, SimulationResult
from .energy import EnergySummary, summarize_energy
from .latency import LatencySummary
from .throughput import FGThroughputChecker

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
]


def _require_counters(
    counters: Optional[PrefixCounters], kind: str
) -> PrefixCounters:
    if counters is None:
        raise AnalysisError(
            f"reducer {kind!r} needs per-slot prefix counters, but the trial "
            "carries none (cached result, or counters released before the "
            "pipeline ran)"
        )
    return counters


class MetricReducer:
    """One streaming metric: columnar per-trial reduce + shard merge.

    Subclasses set ``kind`` (the registry name used by
    :class:`~repro.spec.PipelineSpec`), implement the three-method contract
    and expose their construction parameters through :meth:`spec_params` so
    instances can be serialized and cloned for worker shards.
    """

    kind: str = "reducer"

    #: Whether :meth:`reduce` reads the per-slot counters.  A pipeline whose
    #: reducers all say no never makes a result derive them.
    reads_counters: bool = True

    @property
    def name(self) -> str:
        """Key of this reducer's value in the pipeline output (default: kind)."""
        return self.kind

    def spec_params(self) -> Dict[str, Any]:
        """JSON-serializable constructor parameters (``**params`` rebuilds)."""
        return {}

    def fresh(self) -> "MetricReducer":
        """An empty clone with the same parameters (one per worker shard)."""
        return type(self)(**self.spec_params())

    def reset(self) -> None:
        """Discard accumulated state (called once per study run)."""
        raise NotImplementedError

    def reduce(
        self, counters: Optional[PrefixCounters], outcomes: SimulationResult
    ) -> None:
        """Fold one finished trial into the state (columnar fast path)."""
        raise NotImplementedError

    def merge(self, other: "MetricReducer") -> None:
        """Fold another reducer's partial state into this one, in trial order."""
        raise NotImplementedError

    def value(self) -> Any:
        """The finalized metric (pure: state is left intact)."""
        raise NotImplementedError

    def _check_mergeable(self, other: "MetricReducer") -> None:
        if type(other) is not type(self) or other.spec_params() != self.spec_params():
            raise AnalysisError(
                f"cannot merge reducer {other!r} into {self!r}: "
                "kinds/parameters differ"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self.spec_params().items())
        return f"{type(self).__name__}({params})"


class SuccessTimelineReducer(MetricReducer):
    """Per-trial success-slot timelines, derived from the successes column.

    The success slots of trial ``i`` are the indices where the cumulative
    successes column increments — exactly the slots whose trace record is
    a success.
    """

    kind = "success-timeline"

    def __init__(self) -> None:
        self.timelines: List[List[int]] = []

    def reset(self) -> None:
        self.timelines = []

    def reduce(self, counters, outcomes) -> None:
        counters = _require_counters(counters, self.kind)
        self.timelines.append(counters.success_slots().tolist())

    def merge(self, other) -> None:
        self._check_mergeable(other)
        self.timelines.extend(other.timelines)

    def value(self) -> List[List[int]]:
        return [list(timeline) for timeline in self.timelines]

    def first_success_slots(self) -> List[Optional[int]]:
        return [timeline[0] if timeline else None for timeline in self.timelines]


class WindowedRateReducer(MetricReducer):
    """Windowed success counts per trial (trailing partial window included).

    Computed with one ``np.add.reduceat`` over the per-slot increments of
    the successes column
    (:meth:`~repro.sim.results.PrefixCounters.windowed_successes`).
    """

    kind = "windowed-rate"

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.window = int(window)
        self.counts: List[List[int]] = []

    def spec_params(self) -> Dict[str, Any]:
        return {"window": self.window}

    def reset(self) -> None:
        self.counts = []

    def reduce(self, counters, outcomes) -> None:
        counters = _require_counters(counters, self.kind)
        self.counts.append(counters.windowed_successes(self.window).tolist())

    def merge(self, other) -> None:
        self._check_mergeable(other)
        self.counts.extend(other.counts)

    def rates(self, trial: int) -> List[float]:
        return [count / self.window for count in self.counts[trial]]

    def value(self) -> Dict[str, Any]:
        total = sum(sum(counts) for counts in self.counts)
        return {
            "window": self.window,
            "per_trial_counts": [list(counts) for counts in self.counts],
            "total_successes": int(total),
        }


class FGThroughputReducer(MetricReducer):
    """Definition 1.1 verdicts across trials, via the columnar checker.

    Tracks how many trials satisfied the bound, total violating prefixes and
    the worst prefix ratio (with its trial and slot).  The worst entry is
    updated only on a strictly greater ratio, so merging ordered shard
    partials reproduces the serial scan exactly.
    """

    kind = "fg-throughput"

    def __init__(
        self,
        f: RateFunction,
        g: RateFunction,
        slack: float = 1.0,
        min_prefix: int = 16,
        additive_grace: float = 0.0,
    ) -> None:
        self.f = f
        self.g = g
        self.slack = float(slack)
        self.min_prefix = int(min_prefix)
        self.additive_grace = float(additive_grace)
        self._checker = FGThroughputChecker(
            f, g, slack=slack, min_prefix=min_prefix, additive_grace=additive_grace
        )
        self.trials = 0
        self.satisfied = 0
        self.violations = 0
        self.worst_ratio = 0.0
        self.worst_trial: Optional[int] = None
        self.worst_slot: Optional[int] = None

    def spec_params(self) -> Dict[str, Any]:
        return {
            "f": self.f,
            "g": self.g,
            "slack": self.slack,
            "min_prefix": self.min_prefix,
            "additive_grace": self.additive_grace,
        }

    def reset(self) -> None:
        self.trials = 0
        self.satisfied = 0
        self.violations = 0
        self.worst_ratio = 0.0
        self.worst_trial = None
        self.worst_slot = None

    def reduce(self, counters, outcomes) -> None:
        _require_counters(counters, self.kind)
        report = self._checker.check(outcomes)
        if report.satisfied:
            self.satisfied += 1
        self.violations += report.violations
        if report.worst_ratio > self.worst_ratio:
            self.worst_ratio = report.worst_ratio
            self.worst_trial = self.trials
            self.worst_slot = report.worst_slot
        self.trials += 1

    def merge(self, other) -> None:
        self._check_mergeable(other)
        if other.worst_ratio > self.worst_ratio:
            self.worst_ratio = other.worst_ratio
            self.worst_trial = (
                None
                if other.worst_trial is None
                else self.trials + other.worst_trial
            )
            self.worst_slot = other.worst_slot
        self.trials += other.trials
        self.satisfied += other.satisfied
        self.violations += other.violations

    def _check_mergeable(self, other) -> None:
        # Rate functions compare by (name, func identity is irrelevant for
        # shards cloned from the same spec); compare the scalar envelope and
        # function names instead of spec_params (functions are unhashable
        # payloads there).
        same = (
            type(other) is type(self)
            and other.f.name == self.f.name
            and other.g.name == self.g.name
            and other.slack == self.slack
            and other.min_prefix == self.min_prefix
            and other.additive_grace == self.additive_grace
        )
        if not same:
            raise AnalysisError(
                f"cannot merge reducer {other!r} into {self!r}: "
                "kinds/parameters differ"
            )

    def value(self) -> Dict[str, Any]:
        return {
            "trials": self.trials,
            "satisfied": self.satisfied,
            "satisfied_fraction": (
                self.satisfied / self.trials if self.trials else float("nan")
            ),
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "worst_trial": self.worst_trial,
            "worst_slot": self.worst_slot,
        }


class LatencyReducer(MetricReducer):
    """Slots-to-success distribution over all nodes of all trials."""

    kind = "latency"
    reads_counters = False

    def __init__(self) -> None:
        self.latencies: List[int] = []
        self.unfinished = 0

    def reset(self) -> None:
        self.latencies = []
        self.unfinished = 0

    def reduce(self, counters, outcomes) -> None:
        self.latencies.extend(outcomes.latencies())
        self.unfinished += outcomes.unfinished_nodes

    def merge(self, other) -> None:
        self._check_mergeable(other)
        self.latencies.extend(other.latencies)
        self.unfinished += other.unfinished

    def value(self) -> LatencySummary:
        if not self.latencies:
            nan = float("nan")
            return LatencySummary(
                count=0,
                unfinished=self.unfinished,
                mean=nan,
                median=nan,
                p95=nan,
                maximum=nan,
            )
        arr = np.asarray(self.latencies, dtype=float)
        return LatencySummary(
            count=int(arr.size),
            unfinished=self.unfinished,
            mean=float(np.mean(arr)),
            median=float(np.median(arr)),
            p95=float(np.quantile(arr, 0.95)),
            maximum=float(np.max(arr)),
        )


class EnergyReducer(MetricReducer):
    """Per-node broadcast-count (energy) distribution across trials."""

    kind = "energy"
    reads_counters = False

    def __init__(self) -> None:
        self.counts: List[int] = []

    def reset(self) -> None:
        self.counts = []

    def reduce(self, counters, outcomes) -> None:
        self.counts.extend(outcomes.broadcast_counts())

    def merge(self, other) -> None:
        self._check_mergeable(other)
        self.counts.extend(other.counts)

    def value(self) -> EnergySummary:
        if not self.counts:
            return summarize_energy([])
        arr = np.asarray(self.counts, dtype=float)
        return EnergySummary(
            nodes=int(arr.size),
            mean=float(np.mean(arr)),
            median=float(np.median(arr)),
            p95=float(np.quantile(arr, 0.95)),
            maximum=float(np.max(arr)),
            total_broadcasts=int(np.sum(arr)),
        )


#: Named per-trial scalars a :class:`ScalarSummaryReducer` can track.
SCALAR_METRICS: Dict[str, Callable[[SimulationResult], float]] = {
    "successes": lambda r: float(r.total_successes),
    "arrivals": lambda r: float(r.total_arrivals),
    "active_slots": lambda r: float(r.total_active_slots),
    "jammed_slots": lambda r: float(r.total_jammed_slots),
    "unfinished": lambda r: float(r.unfinished_nodes),
    "total_broadcasts": lambda r: float(r.summary.total_broadcasts),
    "mean_latency": lambda r: r.mean_latency(),
    "wall_time_seconds": lambda r: float(r.wall_time_seconds),
}


class ScalarSummaryReducer(MetricReducer):
    """Distribution summary of one named per-trial scalar.

    Keeps the per-trial value vector (O(trials), never O(horizon)) so the
    finalized mean/std/extrema are bit-identical no matter how the trials
    were sharded — merge is an ordered concatenation, not a floating-point
    moment combination.
    """

    kind = "scalar"
    reads_counters = False

    def __init__(self, metric: str) -> None:
        if metric not in SCALAR_METRICS:
            raise ConfigurationError(
                f"unknown scalar metric {metric!r}; known: "
                f"{', '.join(sorted(SCALAR_METRICS))}"
            )
        self.metric = metric
        self.values_per_trial: List[float] = []

    @property
    def name(self) -> str:
        return f"scalar:{self.metric}"

    def spec_params(self) -> Dict[str, Any]:
        return {"metric": self.metric}

    def reset(self) -> None:
        self.values_per_trial = []

    def reduce(self, counters, outcomes) -> None:
        self.values_per_trial.append(SCALAR_METRICS[self.metric](outcomes))

    def merge(self, other) -> None:
        self._check_mergeable(other)
        self.values_per_trial.extend(other.values_per_trial)

    def value(self) -> Dict[str, float]:
        if not self.values_per_trial:
            nan = float("nan")
            return {"trials": 0, "mean": nan, "std": nan, "min": nan, "max": nan}
        arr = np.asarray(self.values_per_trial, dtype=float)
        return {
            "trials": int(arr.size),
            "mean": float(np.mean(arr)),
            "std": float(np.std(arr)),
            "min": float(np.min(arr)),
            "max": float(np.max(arr)),
        }


class MetricPipeline:
    """An ordered set of reducers fed one finished trial at a time.

    The pipeline is the unit the trial runner schedules: serial runs call
    :meth:`update` per trial; sharded runs give every worker a
    :meth:`fresh` clone and :meth:`merge` the shard partials back in trial
    order.  :meth:`finalize` returns ``{reducer.name: reducer.value()}``
    without consuming state.
    """

    def __init__(self, reducers: Sequence[MetricReducer]) -> None:
        reducers = list(reducers)
        if not reducers:
            raise ConfigurationError("a MetricPipeline needs at least one reducer")
        names = [reducer.name for reducer in reducers]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"duplicate reducer name(s): {', '.join(duplicates)}"
            )
        self._reducers: Tuple[MetricReducer, ...] = tuple(reducers)
        self._reads_counters = any(r.reads_counters for r in reducers)
        self._trials = 0

    @property
    def reducers(self) -> Tuple[MetricReducer, ...]:
        return self._reducers

    @property
    def trials(self) -> int:
        """Trials reduced so far (including merged shard trials)."""
        return self._trials

    def __len__(self) -> int:
        return len(self._reducers)

    def __getitem__(self, name: str) -> MetricReducer:
        for reducer in self._reducers:
            if reducer.name == name:
                return reducer
        raise KeyError(name)

    def reset(self) -> None:
        self._trials = 0
        for reducer in self._reducers:
            reducer.reset()

    def fresh(self) -> "MetricPipeline":
        return MetricPipeline([reducer.fresh() for reducer in self._reducers])

    def update(self, result: SimulationResult) -> None:
        # Reading ``counters`` derives them on a lockstep result.
        counters = (
            getattr(result, "counters", None) if self._reads_counters else None
        )
        for reducer in self._reducers:
            reducer.reduce(counters, result)
        self._trials += 1

    def merge(self, other: "MetricPipeline") -> None:
        if len(other._reducers) != len(self._reducers):
            raise AnalysisError("cannot merge pipelines of different shapes")
        for mine, theirs in zip(self._reducers, other._reducers):
            mine.merge(theirs)
        self._trials += other._trials

    def finalize(self) -> Dict[str, Any]:
        return {reducer.name: reducer.value() for reducer in self._reducers}

    def to_spec(self):
        """The serializable :class:`~repro.spec.PipelineSpec` of this pipeline."""
        from ..spec.pipeline import PipelineSpec

        return PipelineSpec.from_pipeline(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(r.name for r in self._reducers)
        return f"MetricPipeline([{names}], trials={self._trials})"
