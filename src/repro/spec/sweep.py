"""Grid sweeps over StudySpecs: declarative expansion + cached execution.

:class:`Sweep` turns a base :class:`~repro.spec.StudySpec` and a mapping of
dotted-path axes (``{"adversary.jamming.params.fraction": [0.0, 0.1, 0.25]}``)
into the cartesian grid of concrete specs; :class:`StudyPlan` executes any
list of specs through the standard backend ladder, consulting a
:class:`~repro.spec.StudyStore` so previously computed points are served
from disk.  Per-point dispatch bookkeeping (expansion, hashing, cache
lookup) is timed separately from simulation so the overhead stays
observable — the design target is dispatch < 10% of study runtime.

:meth:`StudyPlan.run` is the one place specs meet a store: a local sweep,
an experiment and each job group the sweep service claims all run through
it.  Long sweeps resume through the store alone: ``on_error="skip"``
records a failed point and moves on, and a re-run against the same store
serves every finished point and re-runs the rest.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import faults
from ..errors import SpecError
from .study import StudySpec

__all__ = ["PlanResult", "StudyPlan", "Sweep", "sweep_rows"]


@dataclass(frozen=True)
class Sweep:
    """A parameter grid over one base spec.

    ``axes`` maps dotted override paths (see
    :meth:`~repro.spec.StudySpec.with_overrides`) to the values each axis
    takes; expansion is the cartesian product in axis order, first axis
    slowest (row-major).
    """

    base: StudySpec
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        axes: Dict[str, Tuple[Any, ...]] = {}
        for path, values in dict(self.axes).items():
            values = tuple(values)
            if not values:
                raise SpecError(f"sweep axis {path!r} has no values")
            axes[str(path)] = values
        object.__setattr__(self, "axes", axes)

    @property
    def size(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self) -> List[Dict[str, Any]]:
        """The grid as a list of {path: value} override mappings."""
        if not self.axes:
            return [{}]
        paths = list(self.axes)
        return [
            dict(zip(paths, combo))
            for combo in itertools.product(*(self.axes[p] for p in paths))
        ]

    def expand(self) -> List[StudySpec]:
        """Concrete specs for every grid point, with point labels attached."""
        specs = []
        for overrides in self.points():
            spec = self.base.with_overrides(overrides)
            specs.append(
                spec.with_overrides({"label": _point_label(self.base, overrides)})
            )
        return specs

    def plan(self) -> "StudyPlan":
        return StudyPlan(self.expand())


def _point_label(base: StudySpec, overrides: Mapping[str, Any]) -> str:
    if not overrides:
        return base.display_label
    parts = [f"{path.rsplit('.', 1)[-1]}={value}" for path, value in overrides.items()]
    prefix = f"{base.label} " if base.label else ""
    return prefix + " ".join(parts)


@dataclass
class PlanResult:
    """One executed grid point: spec, study, provenance and timing.

    ``study`` is ``None`` — and ``failed`` / ``error`` are set — for a
    point that raised under ``on_error="skip"``.  ``attempts`` counts
    executions of the point: 0 when the store served it, 1 when a local
    run executed (or tried) it, and one per claim for a served job.
    """

    spec: StudySpec
    study: Any
    overrides: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    dispatch_seconds: float = 0.0
    run_seconds: float = 0.0
    failed: bool = False
    error: str = ""
    attempts: int = 0


class StudyPlan:
    """An ordered list of StudySpecs executed (and cached) as one unit."""

    def __init__(
        self,
        specs: Sequence[StudySpec],
        overrides: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> None:
        if not specs:
            raise SpecError("a study plan needs at least one spec")
        if overrides is not None and len(overrides) != len(specs):
            raise SpecError("overrides must align one-to-one with specs")
        self._specs = list(specs)
        self._overrides = [dict(o) for o in overrides] if overrides else [
            {} for _ in specs
        ]

    @classmethod
    def from_sweep(cls, sweep: Sweep) -> "StudyPlan":
        return cls(sweep.expand(), overrides=sweep.points())

    @property
    def specs(self) -> List[StudySpec]:
        return list(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def run(
        self,
        store: Optional[Any] = None,
        on_error: str = "raise",
        fuse: bool = True,
    ) -> List[PlanResult]:
        """Execute every point in order, consulting ``store`` first.

        ``store`` is anything with the :class:`~repro.spec.store.StudyStore`
        get/put surface — a plain store or a
        :class:`~repro.serve.ShardedStudyStore`; placement is invisible to
        the plan.  Points that carry a metric pipeline are neither served
        from nor written to it: a stored summary has no counters to replay
        a pipeline over.  Every other point that runs is written back once.

        ``dispatch_seconds`` covers everything the plan adds on top of the
        study itself (hashing, cache lookup, result registration);
        ``run_seconds`` is the study execution (zero for cache hits).

        ``on_error`` governs per-point failures: ``"raise"`` (default)
        propagates immediately, ``"skip"`` records a failed
        :class:`PlanResult` and continues.  A failed point is never stored,
        so a later run against the same store serves the finished points
        and re-runs only the rest.

        ``fuse=True`` (default) batches compatible pending points into
        single fused lockstep runs (see :mod:`repro.sim.backends.fused`)
        before the per-point loop; results are seed-for-seed identical to
        per-point dispatch, and a fused group that fails simply falls back
        to per-point execution.  ``fuse=False`` restores strict per-point
        dispatch, the reference fused runs are checked against.
        """
        if on_error not in ("raise", "skip"):
            raise SpecError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        prefused: Dict[int, Any] = {}
        fused_seconds: Dict[int, float] = {}
        lookups: Dict[int, Tuple[Any, float]] = {}
        if fuse:
            prefused, fused_seconds, lookups = self._prefuse(store)
        published = set()
        results: List[PlanResult] = []
        for index, (spec, overrides) in enumerate(
            zip(self._specs, self._overrides)
        ):
            dispatch_start = time.perf_counter()
            digest = spec.spec_hash()
            cacheable = store is not None and spec.pipeline is None
            looked_up = lookups.pop(index, None)
            if looked_up is None or digest in published:
                # Not read while planning, or an earlier duplicate of this
                # point was written since that read.
                looked_up = (store.get(spec) if cacheable else None, 0.0)
            study, lookup_seconds = looked_up
            cached = study is not None
            dispatch_elapsed = (
                time.perf_counter() - dispatch_start + lookup_seconds
            )
            run_elapsed = 0.0
            attempts = 0
            error = ""
            if study is None:
                attempts = 1
                run_start = time.perf_counter()
                try:
                    faults.active_plan().maybe_raise(
                        "sweep-point", point=index, hash=digest
                    )
                    fused = prefused.pop(index, None)
                    study = fused if fused is not None else spec.run()
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    error = f"{type(exc).__name__}: {exc}"
                run_elapsed = (
                    time.perf_counter() - run_start
                    + fused_seconds.pop(index, 0.0)
                )
                if study is not None and cacheable:
                    publish_start = time.perf_counter()
                    store.put(spec, study)
                    published.add(digest)
                    dispatch_elapsed += time.perf_counter() - publish_start
            result = PlanResult(
                spec=spec,
                study=study,
                overrides=dict(overrides),
                cached=cached,
                dispatch_seconds=dispatch_elapsed,
                run_seconds=run_elapsed,
                failed=study is None,
                error=error,
                attempts=attempts,
            )
            results.append(result)
        return results

    def _prefuse(
        self, store: Optional[Any]
    ) -> Tuple[
        Dict[int, Any], Dict[int, float], Dict[int, Tuple[Any, float]]
    ]:
        """Run compatible pending points as fused groups, keyed by index.

        Only points the store cannot serve are considered.  A group that
        raises (including injected ``fused-group`` faults) or turns out not
        to be fusable contributes nothing — its members run per-point in
        the main loop, so a fused failure can never corrupt or lose a
        sibling point.  Returns per-index studies, each point's share of
        its group's wall time (pro-rated by trials), and every store
        lookup made (the stored study or ``None``, and its seconds), which
        the main loop serves instead of reading the store again.
        """
        from ..sim.backends.fused import plan_fusion_groups, run_fused_group

        pending = []
        lookups: Dict[int, Tuple[Any, float]] = {}
        for index, spec in enumerate(self._specs):
            if store is not None and spec.pipeline is None:
                start = time.perf_counter()
                stored = store.get(spec)
                lookups[index] = (stored, time.perf_counter() - start)
                if stored is not None:
                    continue
            pending.append((index, spec))
        studies: Dict[int, Any] = {}
        seconds: Dict[int, float] = {}
        for group in plan_fusion_groups(pending):
            start = time.perf_counter()
            try:
                fused = run_fused_group([spec for _, spec in group])
            except Exception:
                continue  # every member falls back to per-point dispatch
            if fused is None:
                continue
            elapsed = time.perf_counter() - start
            total = sum(spec.trials for _, spec in group)
            for (index, spec), study in zip(group, fused):
                studies[index] = study
                seconds[index] = elapsed * spec.trials / max(1, total)
        return studies, seconds, lookups


def sweep_rows(results: Sequence[PlanResult]) -> List[Dict[str, Any]]:
    """Flat per-point rows (overrides + aggregates) for tables/CSV/JSON.

    Failed points (``on_error="skip"``) contribute a row with
    ``status="failed"`` and their error text instead of aggregates.  Rows
    are normalized to the union of all keys (first-seen order, missing
    values blank), so a sweep mixing failed and successful points still
    renders as one rectangular table/CSV.
    """
    rows = []
    for result in results:
        row: Dict[str, Any] = {
            "label": result.spec.display_label,
            "hash": result.spec.spec_hash()[:12],
            "cached": result.cached,
            "status": "failed" if result.failed else "ok",
        }
        for path, value in result.overrides.items():
            row[path] = value
        if result.failed:
            row["error"] = result.error
        else:
            row.update(result.study.summary_row())
        row["dispatch_seconds"] = result.dispatch_seconds
        row["run_seconds"] = result.run_seconds
        rows.append(row)
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    return [{key: row.get(key, "") for key in keys} for row in rows]
