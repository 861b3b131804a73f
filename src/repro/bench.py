"""Benchmark harness: persistent, schema-versioned performance tracking.

``repro bench`` (see :mod:`repro.cli`) runs a micro study-benchmark suite
across all simulation backends plus an optional experiment-level smoke suite,
and writes the results to a ``BENCH_<date>.json`` file.  The committed bench
files form the project's performance trajectory; the comparison mode diffs
two files and reports regressions beyond a threshold, which CI runs against
the committed baseline.

Two kinds of record are emitted:

* ``micro`` — a multi-trial study of a fixed (protocol, adversary, horizon)
  triple, timed per backend.  ``speedup_vs_reference`` and (for the batched
  study kernel) ``speedup_vs_vectorized`` are *per-trial wall-time ratios
  within the same run on the same machine*, which makes them comparable
  across machines — the regression gate uses them, not absolute wall times.
* ``experiment`` — one full experiment (E1..E10) at the smoke scale, wall
  time plus its consistency verdict.
* ``dispatch`` — the ``auto`` ladder's choice per cell of a matrix of
  scenarios × trial counts × horizons, timed against the reference and
  lockstep tiers, plus one summary record whose ``auto_vs_best`` is the
  matrix's summed time on ``auto``'s picks over the summed time of each
  cell's faster tier.  ``auto`` takes lockstep for the paper's algorithm
  at every trial count, so the gate on ``auto_vs_best`` checks that
  lockstep stays the faster tier.

Micro records additionally carry the suite's **memory trajectory**:
``peak_bytes_per_slot`` (tracemalloc peak of the whole study run, normalized
per simulated slot), ``result_bytes_per_slot`` (per-slot bytes the results
retain after the study returns: their counter columns, or on the lockstep
tiers, whose counters are derived on first read, their jam flags).  The
comparison gate fails on memory growth beyond the threshold exactly as it
does for speedup losses.

Absolute wall times are only compared when the machine fingerprints of the
two files match.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adversary import (
    BatchArrivals,
    ComposedAdversary,
    NoJamming,
    PeriodicJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ReactiveJamming,
    UniformRandomArrivals,
)
from .core import cjz_factory
from .errors import ConfigurationError, ServeError
from .protocols import ProbabilityBackoff, SlottedAloha, make_factory
from .sim import run_trials
from .sim.backends import available_study_backends

__all__ = [
    "SCHEMA_VERSION",
    "collect_bench",
    "compare_bench",
    "default_bench_path",
    "machine_info",
    "profile_workload",
    "render_comparison",
    "run_dispatch_suite",
    "run_experiment_suite",
    "run_fused_sweep_suite",
    "run_micro_suite",
    "run_recovery_suite",
    "run_service_suite",
    "write_bench",
]

SCHEMA_VERSION = 1

#: (trials, horizon, nodes) per scale for the micro study workloads.
_SCALES: Dict[str, Tuple[int, int, int]] = {
    "smoke": (40, 192, 3),
    "quick": (200, 192, 3),
    "full": (600, 192, 3),
}

#: Study backends timed by the micro suite, reference first (it anchors the
#: normalized speedups).  Lockstep, which ``auto`` now picks for these
#: age-profile studies, is timed beside batched-study, so the trajectory
#: carries the ratio of the two.
_BACKENDS = ("reference", "vectorized", "batched-study", "lockstep")

#: Backends eligible for the feedback-driven CJZ workloads: the protocol is
#: not vector-eligible, so only the reference path and the lockstep study
#: tiers (numpy and compiled) can run it.
_CJZ_BACKENDS = ("reference", "lockstep", "lockstep-jit")

#: Backends whose warm-up pass may compile code; the warm-up wall time is
#: recorded as ``compile_time_s`` so JIT cost stays visible without
#: polluting the steady-state timings.
_JIT_BACKENDS = ("lockstep-jit",)

#: Fixed shape of the CJZ micro workloads (e01/e03 miniatures).  The node
#: count and horizon track the experiments' ratios rather than the tiny
#: ALOHA micro shape, so the lockstep speedup is measured at a population
#: the real studies actually carry.
_CJZ_HORIZON = 256
_CJZ_NODES = 32


#: The dispatch matrix: the standard scenarios (the paper's algorithm),
#: trial counts down to a single trial and two horizons — the cells where
#: the per-trial reference loop comes closest to lockstep, which ``auto``
#: picks for every one of them.
_DISPATCH_SCENARIOS = (
    "ethernet-burst",
    "wireless-interference",
    "lock-convoy",
    "adversarial-jam",
)
_DISPATCH_TRIALS = (1, 2, 4, 8, 32)
_DISPATCH_HORIZONS = (256, 1024)

#: Trials the reference tier is timed on per dispatch cell.  Its per-trial
#: cost does not depend on the trial count (trials run one by one), so
#: larger cells are scaled from this many; lock-convoy at 32 trials would
#: otherwise take most of a minute per repeat.
_DISPATCH_REFERENCE_TRIALS = 2


def _micro_workloads(horizon: int, nodes: int):
    """The micro study workloads.

    Each entry is ``(id, protocol_factory, adversary_factory, horizon,
    nodes, backends)`` — the CJZ workloads fix their own shape and backend
    set (see :data:`_CJZ_BACKENDS`); the rest use the scale's shape.
    """
    return [
        (
            "study-e01-batch-jam",
            make_factory(SlottedAloha, 0.05),
            lambda: ComposedAdversary(
                BatchArrivals(nodes), RandomFractionJamming(0.25)
            ),
            horizon,
            nodes,
            _BACKENDS,
        ),
        (
            "study-e04-batch-clear",
            make_factory(SlottedAloha, 0.05),
            lambda: ComposedAdversary(BatchArrivals(nodes), NoJamming()),
            horizon,
            nodes,
            _BACKENDS,
        ),
        (
            "study-poisson-periodic",
            make_factory(ProbabilityBackoff, 1.0),
            lambda: ComposedAdversary(
                PoissonArrivals(nodes / horizon, last_slot=horizon // 2),
                PeriodicJamming(7),
            ),
            horizon,
            nodes,
            _BACKENDS,
        ),
        (
            # e01 miniature: the paper's algorithm against batch arrivals
            # under 25% random jamming — the headline lockstep workload.
            "study-e01-cjz-batch-jam",
            cjz_factory(),
            lambda: ComposedAdversary(
                BatchArrivals(_CJZ_NODES), RandomFractionJamming(0.25)
            ),
            _CJZ_HORIZON,
            _CJZ_NODES,
            _CJZ_BACKENDS,
        ),
        (
            # e03 miniature: spread arrivals against the adaptive reactive
            # jammer (25% budget, burst 8) — exercises the columnar
            # adaptive-adversary path.
            "study-e03-cjz-reactive",
            cjz_factory(),
            lambda: ComposedAdversary(
                UniformRandomArrivals(_CJZ_NODES, (1, _CJZ_HORIZON // 4)),
                ReactiveJamming(0.25, burst=8),
            ),
            _CJZ_HORIZON,
            _CJZ_NODES,
            _CJZ_BACKENDS,
        ),
    ]


def machine_info() -> Dict[str, object]:
    """Fingerprint of the benchmarking machine."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def run_micro_suite(
    scale: str = "smoke",
    seed: int = 20210219,
    backends: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Time the micro study workloads across backends.

    The reference backend is timed on a subset of the trials (it is one to
    two orders of magnitude slower) and compared per trial; the other
    backends run the full study.  Repeats are interleaved across backends so
    machine drift hits all of them equally; the best time per backend wins.

    ``backends`` restricts the timed set; each workload only runs the
    backends that support it (the feedback-driven CJZ workloads run on
    reference + lockstep, the rest on the array ladder and lockstep), and
    a workload whose backend set is disjoint from the restriction is
    skipped.
    """
    if scale not in _SCALES:
        raise ConfigurationError(
            f"scale must be one of {sorted(_SCALES)}, got {scale!r}"
        )
    requested = tuple(backends) if backends else None
    for backend in requested or ():
        if backend not in available_study_backends():
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: "
                f"{', '.join(available_study_backends())}"
            )
    trials, horizon, nodes = _SCALES[scale]
    records: List[Dict[str, object]] = []
    for (
        workload_id,
        protocol_factory,
        adversary_factory,
        workload_horizon,
        workload_nodes,
        workload_backends,
    ) in _micro_workloads(horizon, nodes):
        backends = tuple(
            backend
            for backend in workload_backends
            if requested is None or backend in requested
        )
        if not backends:
            continue
        timings: Dict[str, Tuple[int, float]] = {}
        plans = {
            backend: trials if backend != "reference" else max(4, trials // 10)
            for backend in backends
        }
        # Warm-up pass: primes caches for every backend and, for the JIT
        # tier, pays the numba compile cost outside the timed repeats.  The
        # warm-up wall time is kept so the compile cost stays on record.
        warmup: Dict[str, float] = {}
        for backend, backend_trials in plans.items():
            warmup[backend] = _time_study(
                protocol_factory,
                adversary_factory,
                workload_horizon,
                min(4, backend_trials),
                seed,
                backend,
            )
        for _ in range(max(1, repeats)):
            for backend, backend_trials in plans.items():
                elapsed = _time_study(
                    protocol_factory,
                    adversary_factory,
                    workload_horizon,
                    backend_trials,
                    seed,
                    backend,
                )
                timed, best = timings.get(backend, (backend_trials, float("inf")))
                timings[backend] = (backend_trials, min(best, elapsed))
        memory = {
            backend: _measure_memory(
                protocol_factory,
                adversary_factory,
                workload_horizon,
                backend_trials,
                seed,
                backend,
            )
            for backend, backend_trials in plans.items()
        }
        per_trial = {
            backend: best / timed for backend, (timed, best) in timings.items()
        }
        for backend, (timed, best) in timings.items():
            record: Dict[str, object] = {
                "kind": "micro",
                "id": workload_id,
                "backend": backend,
                "scale": scale,
                "params": {
                    "trials": trials,
                    "trials_timed": timed,
                    "horizon": workload_horizon,
                    "nodes": workload_nodes,
                    "seed": seed,
                },
                "wall_time_s": best,
                "per_trial_s": per_trial[backend],
                "slots_per_second": timed * workload_horizon / best,
            }
            if backend in _JIT_BACKENDS:
                record["compile_time_s"] = warmup[backend]
            record.update(memory[backend])
            if "reference" in per_trial:
                record["speedup_vs_reference"] = (
                    per_trial["reference"] / per_trial[backend]
                )
            if backend == "batched-study" and "vectorized" in per_trial:
                record["speedup_vs_vectorized"] = (
                    per_trial["vectorized"] / per_trial[backend]
                )
            records.append(record)
    return records


def _measure_memory(
    protocol_factory,
    adversary_factory: Callable,
    horizon: int,
    trials: int,
    seed: int,
    backend: str,
) -> Dict[str, float]:
    """Memory profile of one study run, normalized per simulated slot."""
    tracemalloc.start()
    try:
        study = run_trials(
            protocol_factory=protocol_factory,
            adversary_factory=adversary_factory,
            horizon=horizon,
            trials=trials,
            seed=seed,
            backend=backend,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slots = sum(result.horizon + 1 for result in study.results)
    profile = {
        "peak_bytes_per_slot": peak / slots,
        "result_bytes_per_slot": study.memory_bytes() / slots,
    }
    if backend == "batched-study":
        # Streaming keeps only summaries; record the retained bytes to make
        # the O(1)-memory mode visible in the trajectory.
        streamed = run_trials(
            protocol_factory=protocol_factory,
            adversary_factory=adversary_factory,
            horizon=horizon,
            trials=trials,
            seed=seed,
            backend=backend,
            streaming=True,
        )
        profile["streaming_result_bytes_per_slot"] = (
            streamed.memory_bytes() / slots
        )
    return profile


def _time_study(
    protocol_factory,
    adversary_factory: Callable,
    horizon: int,
    trials: int,
    seed: int,
    backend: str,
) -> float:
    start = time.perf_counter()
    run_trials(
        protocol_factory=protocol_factory,
        adversary_factory=adversary_factory,
        horizon=horizon,
        trials=trials,
        seed=seed,
        backend=backend,
    )
    return time.perf_counter() - start


def profile_workload(
    workload_id: str,
    scale: str = "smoke",
    seed: int = 20210219,
    backend: Optional[str] = None,
) -> str:
    """cProfile one micro workload; top-20 entries by cumulative time.

    Runs the workload once on ``backend`` (default: the workload's fastest
    eligible tier) after an untimed warm-up, so JIT compilation does not
    dominate the profile.  Returns the rendered ``pstats`` report.
    """
    import cProfile
    import io
    import pstats

    if scale not in _SCALES:
        raise ConfigurationError(
            f"scale must be one of {sorted(_SCALES)}, got {scale!r}"
        )
    trials, horizon, nodes = _SCALES[scale]
    for (
        candidate_id,
        protocol_factory,
        adversary_factory,
        workload_horizon,
        _workload_nodes,
        workload_backends,
    ) in _micro_workloads(horizon, nodes):
        if candidate_id == workload_id:
            break
    else:
        known = ", ".join(
            entry[0] for entry in _micro_workloads(horizon, nodes)
        )
        raise ConfigurationError(
            f"unknown benchmark id {workload_id!r}; available: {known}"
        )
    chosen = backend or workload_backends[-1]
    if chosen not in available_study_backends():
        raise ConfigurationError(
            f"unknown backend {chosen!r}; available: "
            f"{', '.join(available_study_backends())}"
        )
    profiled_trials = trials if chosen != "reference" else max(4, trials // 10)
    _time_study(  # warm-up: compile/caches outside the profile
        protocol_factory,
        adversary_factory,
        workload_horizon,
        min(4, profiled_trials),
        seed,
        chosen,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_trials(
            protocol_factory=protocol_factory,
            adversary_factory=adversary_factory,
            horizon=workload_horizon,
            trials=profiled_trials,
            seed=seed,
            backend=chosen,
        )
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(20)
    header = (
        f"profile {workload_id} [backend={chosen}] "
        f"trials={profiled_trials} horizon={workload_horizon}\n"
    )
    return header + buffer.getvalue()


def run_experiment_suite(
    seed: int = 20210219, trials: int = 2
) -> List[Dict[str, object]]:
    """Time every registered experiment once at the smoke scale."""
    from .experiments import ExperimentConfig, all_experiments, run_experiment

    config = ExperimentConfig(trials=trials, seed=seed, scale="smoke")
    records = []
    for experiment_id in all_experiments():
        start = time.perf_counter()
        result = run_experiment(experiment_id, config)
        elapsed = time.perf_counter() - start
        records.append(
            {
                "kind": "experiment",
                "id": experiment_id,
                "backend": config.backend,
                "scale": config.scale,
                "params": {"trials": trials, "seed": seed},
                "wall_time_s": elapsed,
                "consistent_with_paper": result.consistent_with_paper,
            }
        )
    return records


def run_dispatch_suite(
    seed: int = 20210219, repeats: int = 3
) -> List[Dict[str, object]]:
    """Time the ``auto`` ladder's pick against reference and lockstep.

    Per cell of the dispatch matrix, one untimed ``auto`` run (which also
    warms the caches) records the backend ``auto`` picks; then the
    reference tier, the lockstep tier and — if it is neither — the picked
    tier are timed, best of ``repeats`` interleaved runs.  The reference
    tier is timed on :data:`_DISPATCH_REFERENCE_TRIALS` trials and scaled
    to the cell's trial count.  One ``dispatch`` record per cell, whose
    ``wall_time_s`` is the picked tier's time, and one ``dispatch-matrix``
    summary record carrying ``auto_vs_best``.
    """
    from .workloads import scenario_study

    records: List[Dict[str, object]] = []
    picked_total = best_total = 0.0
    worst: Tuple[float, str] = (0.0, "")
    for scenario in _DISPATCH_SCENARIOS:
        for horizon in _DISPATCH_HORIZONS:
            for trials in _DISPATCH_TRIALS:
                spec = scenario_study(
                    scenario, trials=trials, seed=seed
                ).with_overrides({"horizon": horizon})
                picked = spec.run().results[0].backend
                timed_trials = {
                    "reference": min(trials, _DISPATCH_REFERENCE_TRIALS),
                    "lockstep": trials,
                }
                timed_trials.setdefault(picked, trials)
                best = {backend: float("inf") for backend in timed_trials}
                for _ in range(max(1, repeats)):
                    for backend, count in timed_trials.items():
                        run = spec.with_overrides(
                            {"trials": count}
                        ).with_execution(backend=backend)
                        start = time.perf_counter()
                        run.run()
                        elapsed = time.perf_counter() - start
                        best[backend] = min(
                            best[backend], elapsed * trials / count
                        )
                fastest = min(best["reference"], best["lockstep"])
                picked_total += best[picked]
                best_total += fastest
                cell = f"dispatch-{scenario}-t{trials}-h{horizon}"
                worst = max(worst, (best[picked] / fastest, cell))
                records.append(
                    {
                        "kind": "dispatch",
                        "id": cell,
                        "backend": "auto",
                        "scale": "smoke",
                        "params": {
                            "scenario": scenario,
                            "trials": trials,
                            "horizon": horizon,
                            "seed": seed,
                            "reference_trials_timed": timed_trials["reference"],
                        },
                        "auto_backend": picked,
                        "reference_s": best["reference"],
                        "lockstep_s": best["lockstep"],
                        "wall_time_s": best[picked],
                        "slots_per_second": trials * horizon / best[picked],
                    }
                )
    records.append(
        {
            "kind": "dispatch",
            "id": "dispatch-matrix",
            "backend": "auto",
            "scale": "smoke",
            "params": {
                "scenarios": list(_DISPATCH_SCENARIOS),
                "trials": list(_DISPATCH_TRIALS),
                "horizons": list(_DISPATCH_HORIZONS),
                "seed": seed,
            },
            "wall_time_s": picked_total,
            "best_wall_time_s": best_total,
            "auto_vs_best": picked_total / best_total,
            "worst_cell": worst[1],
            "worst_cell_ratio": worst[0],
        }
    )
    return records


#: The service suite's bound on each job's execution (the server's job
#: deadline, no requeue); the client waits twice as long for any answer and
#: does not re-send, so a job lost on the way fails the suite, naming it,
#: instead of stalling it.
_SERVICE_DEADLINE_S = 60.0


def _service_submit(client, specs) -> None:
    """Submit and wait; raise :class:`ConfigurationError` naming the jobs
    when one fails or no answer comes within the client's timeout."""
    try:
        outcomes = client.submit(specs)
    except ServeError as exc:
        names = ", ".join(spec.spec_hash()[:12] for spec in specs)
        raise ConfigurationError(
            f"service bench submit of jobs {names} got no answer: {exc}"
        ) from exc
    for spec, outcome in zip(specs, outcomes):
        if not outcome.ok:
            raise ConfigurationError(
                f"service bench job {spec.spec_hash()[:12]} failed: "
                f"{outcome.error}"
            )


def run_service_suite(
    seed: int = 20210219, repeats: int = 3
) -> List[Dict[str, object]]:
    """Time the sweep service: a cold submit round trip, then cached hits.

    Spins an in-process :class:`~repro.serve.BackgroundServer` over a
    throwaway 2-shard store, submits a small spec batch cold (execution +
    protocol overhead) and then re-submits it ``repeats`` times so every
    point is answered from memory — the cached-hit path is pure server/
    client/serialization cost.  One ``micro`` record,
    ``id="service-submit-roundtrip"``; older baselines without it compare
    clean (records absent from the baseline are skipped).
    """
    import tempfile

    from .serve import BackgroundServer, ServeClient
    from .workloads import scenario_study

    horizon = 256
    trials = 2
    base = scenario_study("adversarial-jam").with_overrides(
        {"trials": trials, "horizon": horizon}
    )
    specs = [base.with_overrides({"seed": seed + index}) for index in range(4)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        with BackgroundServer(
            root, workers=2, deadline=_SERVICE_DEADLINE_S, requeues=0
        ) as server:
            client = ServeClient(
                *server.address, timeout=2 * _SERVICE_DEADLINE_S, retries=0
            )
            start = time.perf_counter()
            _service_submit(client, specs)
            cold = time.perf_counter() - start
            cached_best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                _service_submit(client, specs)
                cached_best = min(cached_best, time.perf_counter() - start)
    return [
        {
            "kind": "micro",
            "id": "service-submit-roundtrip",
            "backend": "serve",
            "scale": "smoke",
            "params": {
                "specs": len(specs),
                "trials": trials,
                "horizon": horizon,
                "seed": seed,
            },
            "wall_time_s": cold,
            "slots_per_second": len(specs) * trials * horizon / cold,
            "cold_submit_s": cold,
            "cached_submit_s": cached_best,
            "cached_hits_per_second": len(specs) / cached_best,
        }
    ]


def run_recovery_suite(
    seed: int = 20210219, repeats: int = 3
) -> List[Dict[str, object]]:
    """Time WAL replay: a restarted server absorbing a 64-job backlog.

    Builds a :class:`~repro.serve.ServeJournal` of 64 ``accepted`` jobs
    whose results already sit in the store — the post-crash shape where the
    daemon died after finishing the work but before journaling it — and
    times ``SweepServer.start()``, which replays the journal and answers
    every backlog job from the store.  Best-of-``repeats`` wall time; one
    ``micro`` record, ``id="service-recovery"``, absent from older
    baselines (``--compare`` skips records the baseline lacks).
    """
    import asyncio
    import tempfile

    from .serve import ServeJournal, ShardedStudyStore, SweepServer
    from .spec import StudyPlan
    from .workloads import scenario_study

    horizon = 128
    trials = 1
    jobs = 64
    base = scenario_study("adversarial-jam").with_overrides(
        {"trials": trials, "horizon": horizon}
    )
    specs = [base.with_overrides({"seed": seed + index}) for index in range(jobs)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as root:
        store = ShardedStudyStore(Path(root) / "store", shards=2)
        StudyPlan(specs).run(store=store)

        async def _replay(journal_path: Path) -> float:
            server = SweepServer(
                store, port=0, workers=2, journal=journal_path
            )
            start = time.perf_counter()
            await server.start()
            elapsed = time.perf_counter() - start
            try:
                stats = server.stats
                if stats.recovered != jobs or stats.cache_hits != jobs:
                    raise ConfigurationError(
                        f"recovery bench expected {jobs} store-answered "
                        f"jobs, recovered {stats.recovered} with "
                        f"{stats.cache_hits} cache hits"
                    )
            finally:
                await server.stop()
            return elapsed

        best = float("inf")
        for repeat in range(max(1, repeats)):
            journal_path = Path(root) / f"journal-{repeat}.jsonl"
            journal = ServeJournal(journal_path)
            for spec in specs:
                journal.record(
                    spec.spec_hash(), "accepted", spec=spec.to_dict()
                )
            best = min(best, asyncio.run(_replay(journal_path)))
    return [
        {
            "kind": "micro",
            "id": "service-recovery",
            "backend": "serve",
            "scale": "smoke",
            "params": {
                "jobs": jobs,
                "trials": trials,
                "horizon": horizon,
                "seed": seed,
            },
            "wall_time_s": best,
            "slots_per_second": jobs * trials * horizon / best,
            "replay_s": best,
            "jobs_per_second": jobs / best,
        }
    ]


def run_fused_sweep_suite(
    seed: int = 20210219, repeats: int = 3
) -> List[Dict[str, object]]:
    """Time fused vs per-point dispatch of a 64-point CJZ sweep grid.

    The grid is 16 seeds × 4 jamming fractions of a small-trial CJZ study —
    the regime fusion targets, where per-point fixed costs (probe/driver
    construction, pool seeding, the slot loop's Python overhead) dominate
    the simulation itself.  Both paths run with ``store=None`` on the
    pinned numpy lockstep backend; the suite *asserts* that the fused rows
    equal the per-point rows (timing fields aside) before reporting, so a
    speedup can never be bought with drift.  One ``micro`` record,
    ``id="sweep-fused-grid"``, carrying ``fused_speedup`` — a same-machine
    wall-time ratio like the other normalized metrics; older baselines
    without the id compare clean.
    """
    from .spec import StudySpec, StudyPlan, Sweep, sweep_rows

    base = StudySpec.from_dict(
        {
            "protocol": {
                "kind": "cjz",
                "params": {"g": {"kind": "constant", "params": {"value": 4.0}}},
            },
            "adversary": {
                "kind": "composed",
                "arrivals": {"kind": "batch", "params": {"count": 12}},
                "jamming": {
                    "kind": "random-fraction",
                    "params": {"fraction": 0.0},
                },
            },
            "horizon": 192,
            "trials": 2,
            "seed": seed,
            "backend": "lockstep",
        }
    )
    sweep = Sweep(
        base,
        {
            "adversary.jamming.params.fraction": [0.0, 0.1, 0.2, 0.3],
            "seed": [seed + index for index in range(16)],
        },
    )

    def _run(fuse: bool) -> Tuple[float, List[Dict[str, object]]]:
        best, rows = float("inf"), None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            results = StudyPlan.from_sweep(sweep).run(fuse=fuse)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best, rows = elapsed, sweep_rows(results)
        return best, rows

    fused_s, fused_rows = _run(True)
    serial_s, serial_rows = _run(False)
    timing_fields = {
        "mean_wall_time_s",
        "mean_slots_per_s",
        "dispatch_seconds",
        "run_seconds",
    }

    def _strip(rows):
        return [
            {k: v for k, v in row.items() if k not in timing_fields}
            for row in rows
        ]

    if _strip(fused_rows) != _strip(serial_rows):
        raise ConfigurationError(
            "fused sweep rows diverged from per-point dispatch; "
            "refusing to report a speedup over wrong results"
        )
    points = sweep.size
    return [
        {
            "kind": "micro",
            "id": "sweep-fused-grid",
            "backend": "lockstep",
            "scale": "smoke",
            "params": {
                "points": points,
                "trials": base.trials,
                "horizon": base.horizon,
                "seed": seed,
            },
            "wall_time_s": fused_s,
            "slots_per_second": points * base.trials * base.horizon / fused_s,
            "serial_wall_time_s": serial_s,
            "fused_speedup": serial_s / fused_s,
        }
    ]


def collect_bench(
    scale: str = "smoke",
    seed: int = 20210219,
    backends: Optional[Sequence[str]] = None,
    include_experiments: bool = True,
    repeats: int = 3,
) -> Dict[str, object]:
    """Run the full suite and assemble the schema-versioned document."""
    benchmarks = run_micro_suite(
        scale=scale, seed=seed, backends=backends, repeats=repeats
    )
    if backends is None:
        # The service round trip and the fused-dispatch grid are
        # backend-independent; a --backends restriction means "time these
        # kernels", so they are skipped there.
        benchmarks.extend(run_service_suite(seed=seed, repeats=repeats))
        benchmarks.extend(run_recovery_suite(seed=seed, repeats=repeats))
        benchmarks.extend(run_fused_sweep_suite(seed=seed, repeats=repeats))
        benchmarks.extend(run_dispatch_suite(seed=seed, repeats=repeats))
    if include_experiments:
        benchmarks.extend(run_experiment_suite(seed=seed))
    return {
        "schema_version": SCHEMA_VERSION,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_info(),
        "scale": scale,
        "seed": seed,
        "benchmarks": benchmarks,
    }


def default_bench_path(directory: str | Path = ".") -> Path:
    """``BENCH_<YYYY-MM-DD>.json`` in ``directory``."""
    stamp = datetime.date.today().isoformat()
    return Path(directory) / f"BENCH_{stamp}.json"


def write_bench(data: Dict[str, object], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")
    return path


def load_bench(path: str | Path) -> Dict[str, object]:
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"bench file {path} has schema_version={version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    return data


def compare_bench(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = 0.2,
) -> List[Dict[str, object]]:
    """Regressions of ``current`` against ``baseline`` beyond ``threshold``.

    Micro records are compared on their machine-normalized speedups and on
    their per-slot memory profile (peak and retained bytes — object sizes
    are stable across 64-bit machines, so memory gates cross-machine);
    absolute wall times are additionally compared when both files were
    produced on the same machine.  Experiment records flag verdict flips and
    (same machine only) wall-time regressions.  Returns one dict per
    regression; an empty list means the gate passes.  Metrics absent from
    either file (e.g. memory fields against a pre-columnar baseline, or
    ``compile_time_s`` and the ``lockstep-jit`` records against a pre-JIT
    baseline) are skipped, never treated as regressions.
    """
    same_machine = baseline.get("machine") == current.get("machine")
    baseline_map = _record_map(baseline)
    current_map = _record_map(current)
    regressions: List[Dict[str, object]] = []
    # A benchmark that disappears must not pass the gate vacuously.
    for key in baseline_map:
        if key not in current_map:
            regressions.append(_regression(key, "missing_benchmark", "present", "absent"))
    for key, record in current_map.items():
        old = baseline_map.get(key)
        if old is None:
            continue
        kind = key[0]
        if kind == "micro":
            for metric in (
                "speedup_vs_reference",
                "speedup_vs_vectorized",
                "fused_speedup",
            ):
                if metric in record and metric in old:
                    before, after = float(old[metric]), float(record[metric])
                    if after < before * (1.0 - threshold):
                        regressions.append(
                            _regression(key, metric, before, after)
                        )
            for metric in (
                "peak_bytes_per_slot",
                "result_bytes_per_slot",
                "streaming_result_bytes_per_slot",
            ):
                if metric in record and metric in old:
                    before, after = float(old[metric]), float(record[metric])
                    # More bytes is worse; the one-int64-per-slot floor
                    # absorbs noise on near-zero baselines (a streamed study
                    # retains ~0 bytes).
                    if after > before * (1.0 + threshold) and after - before > 8:
                        regressions.append(
                            _regression(key, metric, before, after)
                        )
        if same_machine and "wall_time_s" in record and "wall_time_s" in old:
            before, after = float(old["wall_time_s"]), float(record["wall_time_s"])
            if after > before * (1.0 + threshold):
                regressions.append(_regression(key, "wall_time_s", before, after))
        if "auto_vs_best" in record and "auto_vs_best" in old:
            # The ratio of two same-run times; higher means auto picked
            # slower tiers.
            before, after = float(old["auto_vs_best"]), float(record["auto_vs_best"])
            if after > before * (1.0 + threshold):
                regressions.append(_regression(key, "auto_vs_best", before, after))
        if kind == "experiment":
            before_ok = old.get("consistent_with_paper")
            after_ok = record.get("consistent_with_paper")
            if before_ok is True and after_ok is False:
                regressions.append(
                    _regression(key, "consistent_with_paper", True, False)
                )
    return regressions


def _record_map(data: Dict[str, object]) -> Dict[tuple, Dict[str, object]]:
    # Scale is part of the key: speedups at different study sizes are not
    # comparable (amortization scales with trial count).
    return {
        (
            record["kind"],
            record["id"],
            record.get("backend", ""),
            record.get("scale", ""),
        ): record
        for record in data.get("benchmarks", [])
    }


def _regression(key: tuple, metric: str, before, after) -> Dict[str, object]:
    kind, identifier, backend, _scale = key
    return {
        "kind": kind,
        "id": identifier,
        "backend": backend,
        "metric": metric,
        "baseline": before,
        "current": after,
    }


def render_comparison(regressions: List[Dict[str, object]]) -> str:
    """Human-readable regression report (empty-list case included)."""
    if not regressions:
        return "bench comparison: no regressions beyond threshold"
    lines = [f"bench comparison: {len(regressions)} regression(s) detected"]
    for item in regressions:
        before, after = item["baseline"], item["current"]
        if isinstance(before, float):
            delta = f"{before:.3g} -> {after:.3g}"
        else:
            delta = f"{before} -> {after}"
        lines.append(
            f"  {item['kind']}/{item['id']} [{item['backend']}] "
            f"{item['metric']}: {delta}"
        )
    return "\n".join(lines)
