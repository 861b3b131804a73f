"""Multi-trial runner: repeat a simulation with independent seeds and aggregate.

Trials are independent by construction (each gets its own root seed from
:func:`repro.rng.trial_seeds`), which makes them embarrassingly parallel: pass
``workers=N`` to fan trials out over ``N`` forked worker processes.  Seeds are
derived identically in the serial and parallel paths, so a parallel study is
seed-for-seed identical to a serial one — only wall-clock changes.  Each
worker pickles its shard's results back through the pipe it was started
with: a lockstep result carries its node columns and one bool jam flag per
slot, and derives its counters in the parent when something reads them.

Worker shards run under a *supervisor* with one fixed policy: each shard
is dispatched asynchronously to its own forked process, crashes are
detected (instead of surfacing as an opaque ``RemoteError`` or a hang), a
shard that outlives ``REPRO_SHARD_TIMEOUT`` seconds (when set) is
terminated as hung, and a failed shard is re-dispatched twice, after
backoffs of 0.05 s and then 0.1 s.  Because every shard is a deterministic
contiguous trial range, a retried shard reproduces exactly the results the
crashed attempt would have produced — faults never change results, only
wall-clock.  A shard whose last retry fails too runs in-process serially.
Every recovery action is recorded on the study's
:class:`~repro.sim.health.RunHealth`.

Backends
--------

``backend`` takes any name of :data:`~repro.sim.backends.LADDERS`, the one
table of what each name runs:

* ``"auto"`` (default) — ``lockstep-jit``, then ``lockstep``, then each
  trial on the ``reference`` kernel.  ``lockstep-jit`` is skipped outright
  when the interpreter is off or the program has no compiled tables; the
  lockstep tiers take every protocol with a columnar
  :class:`~repro.protocols.base.LockstepProgram` (the paper's CJZ algorithm
  and its variants, windowed/sawtooth/polynomial backoff, the
  vector-eligible protocols) against any adversary, adaptive ones
  included.  No rung depends on the trial count.  The age-profile
  (vector-eligible) protocols run lockstep too: their program draws each
  node's sends when it arrives, so the loop skips the slots in which none
  of them sends.
* ``"lockstep-jit"`` — the lockstep semantics lowered into one fused slot
  loop (:class:`~repro.sim.backends.CompiledStudyKernel`), numba-compiled
  when numba is installed; demotes automatically (and silently) to the
  numpy lockstep kernel when it cannot run, with identical results.
* ``"lockstep"`` — the study is executed by
  :class:`~repro.sim.backends.LockstepStudyKernel`, which advances all
  trials one slot at a time with array operations.
* ``"batched-study"`` — the whole study (or each worker's shard of it) is
  executed by :class:`~repro.sim.backends.BatchedStudyKernel` in one numpy
  pass; requires a vector-eligible protocol and a precompilable adversary.
* ``"vectorized"`` / ``"reference"`` — per-trial kernels, forwarded to every
  :class:`~repro.sim.engine.Simulator`.

A pinned study kernel that cannot run the study raises; one that bails at
run time hands every trial to the per-trial ``reference`` kernel.
Dispatch (:meth:`TrialRunner.run`) and :meth:`TrialRunner.explain_backend`
read the same ladder walk, so the explanation names the rung that runs.
All paths are seed-for-seed identical; only wall-clock differs.

Metric pipelines and streaming
------------------------------

``pipeline=`` attaches a :class:`~repro.metrics.MetricPipeline` (or its
serializable :class:`~repro.spec.PipelineSpec`): every finished trial is
reduced into the pipeline's columnar reducers, on *any* backend — the
batched study kernel included — and under ``workers > 1``, where each
worker reduces its contiguous shard into a fresh pipeline clone and the
parent merges the shard partials back in trial order (identical to a
serial reduction; property-tested).  ``streaming=True`` additionally drops
each trial's O(horizon) prefix columns the moment all reducers have
consumed it, so huge-horizon studies retain only reducer state plus the
O(1) per-trial summary surface.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import faults
from ..adversary.base import Adversary
from ..channel.multiple_access import MultipleAccessChannel
from ..errors import ConfigurationError
from ..protocols.base import ProtocolFactory
from ..rng import SeedLike, SeedTree, TrialSeedBatch
from .backends import (
    AUTO_BACKEND,
    COMPILED_BACKEND,
    LADDERS,
    KernelContext,
    SlotKernel,
)
from .backends.studysupport import StudyProbe
from .engine import Simulator, SimulatorConfig
from .health import RunHealth, collecting, note_demotion
from .results import SimulationResult

__all__ = [
    "TrialRunner",
    "TrialStudy",
    "run_trials",
]

AdversaryFactory = Callable[[], Adversary]

MetricExtractor = Callable[[SimulationResult], float]
MetricLike = Union[MetricExtractor, np.ndarray]


def _extract_successes(result: SimulationResult) -> float:
    return float(result.total_successes)


def _extract_arrivals(result: SimulationResult) -> float:
    return float(result.total_arrivals)


def _extract_active_slots(result: SimulationResult) -> float:
    return float(result.total_active_slots)


def _extract_jammed_slots(result: SimulationResult) -> float:
    return float(result.total_jammed_slots)


def _extract_mean_latency(result: SimulationResult) -> float:
    return result.mean_latency()


def _extract_unfinished(result: SimulationResult) -> float:
    return float(result.unfinished_nodes)


def _extract_wall_time(result: SimulationResult) -> float:
    return result.wall_time_seconds


def _extract_slots_per_second(result: SimulationResult) -> float:
    return result.slots_per_second


@dataclass
class TrialStudy:
    """Results of a set of independent trials of the same configuration.

    ``effective_workers`` records how many worker processes actually executed
    the study (1 when a ``workers>1`` request fell back to serial execution on
    a platform without ``fork``), so reports never claim parallelism that did
    not happen.  ``from_cache`` marks studies loaded from a
    :class:`~repro.spec.StudyStore` rather than simulated; their ``results``
    are summary-level :class:`~repro.spec.CachedResult` objects.  ``health``
    is the structured :class:`~repro.sim.health.RunHealth` record of the
    run: shard retries/failures, backend demotion events with reasons and
    in-process fallbacks (empty = clean run).
    """

    results: List[SimulationResult] = field(default_factory=list)
    label: str = ""
    effective_workers: int = 1
    from_cache: bool = False
    pipeline: Optional[Any] = None
    health: RunHealth = field(default_factory=RunHealth, compare=False)
    _metric_cache: Dict[MetricExtractor, Tuple[int, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def trials(self) -> int:
        return len(self.results)

    def metric(self, extractor: MetricExtractor) -> np.ndarray:
        """Vector of a per-trial scalar metric.

        Vectors are memoized per extractor object, so repeated aggregations
        (``mean`` + ``std`` + ``quantile`` over the same extractor) run the
        extractor over the results only once.  Entries are invalidated when
        ``results`` changes length (the runner appends to it after
        construction).
        """
        entry = self._metric_cache.get(extractor)
        if entry is not None and entry[0] == len(self.results):
            return entry[1]
        values = np.asarray(
            [extractor(result) for result in self.results], dtype=float
        )
        self._metric_cache[extractor] = (len(self.results), values)
        return values

    def _values(self, metric: MetricLike) -> np.ndarray:
        if isinstance(metric, np.ndarray):
            return metric
        return self.metric(metric)

    def mean(self, metric: MetricLike) -> float:
        """Mean of a metric (an extractor or a precomputed vector)."""
        values = self._values(metric)
        return float(np.mean(values)) if values.size else float("nan")

    def std(self, metric: MetricLike) -> float:
        values = self._values(metric)
        return float(np.std(values)) if values.size else float("nan")

    def quantile(self, metric: MetricLike, q: float) -> float:
        values = self._values(metric)
        return float(np.quantile(values, q)) if values.size else float("nan")

    def metrics(self) -> Optional[Dict[str, Any]]:
        """Finalized values of the attached metric pipeline (``None`` without one)."""
        if self.pipeline is None:
            return None
        return self.pipeline.finalize()

    def memory_bytes(self) -> int:
        """Bytes of per-slot data retained by all results (see
        :meth:`SimulationResult.memory_bytes`).

        0 for streamed studies (columns released after reduction) and for
        cache-rehydrated studies (summaries only).
        """
        return sum(
            getattr(result, "memory_bytes", lambda: 0)() for result in self.results
        )

    def fraction_satisfying(
        self, predicate: Callable[[SimulationResult], bool]
    ) -> float:
        if not self.results:
            return float("nan")
        return sum(1 for r in self.results if predicate(r)) / len(self.results)

    def summary_row(self) -> Dict[str, float]:
        """Standard aggregate row used by experiment reports.

        Uses module-level extractors so repeated calls hit the metric cache
        instead of accumulating fresh lambda keys in it.
        """
        return {
            "trials": float(self.trials),
            "workers": float(self.effective_workers),
            "mean_successes": self.mean(_extract_successes),
            "mean_arrivals": self.mean(_extract_arrivals),
            "mean_active_slots": self.mean(_extract_active_slots),
            "mean_jammed_slots": self.mean(_extract_jammed_slots),
            "mean_latency": self.mean(_extract_mean_latency),
            "mean_unfinished": self.mean(_extract_unfinished),
            "mean_wall_time_s": self.mean(_extract_wall_time),
            "mean_slots_per_s": self.mean(_extract_slots_per_second),
            **self.health.summary_fields(),
        }


def _coerce_factories(protocol_factory, adversary_factory, horizon: int):
    """Accept declarative specs wherever factories are expected.

    :class:`~repro.spec.ProtocolSpec` / :class:`~repro.spec.AdversarySpec`
    inputs are built into the equivalent factories (the adversary spec gets
    the study horizon so horizon-dependent defaults and the proof
    adversaries resolve); plain callables pass through untouched.  Imported
    lazily — the spec package imports this module's public API.
    """
    from ..spec.adversary import AdversarySpec
    from ..spec.protocol import ProtocolSpec

    if isinstance(protocol_factory, ProtocolSpec):
        protocol_factory = protocol_factory.build()
    if isinstance(adversary_factory, AdversarySpec):
        adversary_factory = adversary_factory.factory(horizon)
    return protocol_factory, adversary_factory


def _coerce_pipeline(pipeline):
    """Accept a live :class:`~repro.metrics.MetricPipeline` or its spec.

    Imported lazily for the same reason as :func:`_coerce_factories` — both
    the metrics and spec packages import this module's public API.
    """
    if pipeline is None:
        return None
    from ..metrics.pipeline import MetricPipeline
    from ..spec.pipeline import PipelineSpec

    if isinstance(pipeline, PipelineSpec):
        return pipeline.build()
    if isinstance(pipeline, MetricPipeline):
        return pipeline
    raise ConfigurationError(
        f"pipeline must be a MetricPipeline or PipelineSpec, got {pipeline!r}"
    )


#: Exit code of a worker killed by an injected ``worker-crash`` fault.
_FAULT_EXIT_CODE = 23
#: How long an injected ``worker-hang`` sleeps (far past any sane timeout).
_HANG_SLEEP_SECONDS = 3600.0
#: Seconds slept before each re-dispatch of a failed shard, one entry per
#: retry; a shard that fails once more than this allows runs in-process.
_RETRY_BACKOFFS = (0.05, 0.1)


@dataclass
class _ShardTask:
    """One contiguous trial range awaiting (re-)execution."""

    index: int
    chunk: List[SeedTree]
    trial_lo: int
    trial_hi: int
    attempt: int = 0


def _shard_entry(
    runner: "TrialRunner",
    chunk: List[SeedTree],
    conn,
    index: int,
    attempt: int,
) -> None:
    """Worker-process entry point for one shard.

    Runs in a forked child, so the runner (with its possibly unpicklable
    closures) arrives by memory copy — nothing but the result payload ever
    crosses a pickle boundary.  Sends ``("ok", results, pipeline, events)``
    on success or ``("error", description)`` on a deterministic exception;
    a crash sends nothing and is detected by the supervisor through the
    process sentinel.
    """
    try:
        plan = faults.active_plan()
        if plan.fires(
            "worker-crash", shard=index, attempt=attempt, trials=len(chunk)
        ):
            os._exit(_FAULT_EXIT_CODE)
        if plan.fires(
            "worker-hang", shard=index, attempt=attempt, trials=len(chunk)
        ):
            time.sleep(_HANG_SLEEP_SECONDS)
        # Each shard reduces into its own fresh pipeline clone; the parent
        # merges the returned partials in shard (= trial) order.
        shard_pipeline = (
            runner._pipeline.fresh() if runner._pipeline is not None else None
        )
        shard_health = RunHealth()
        with collecting(shard_health):
            results = runner._run_chunk(chunk, shard_pipeline)
        conn.send(("ok", results, shard_pipeline, shard_health.events))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class TrialRunner:
    """Runs the same (protocol, adversary, config) combination across seeds.

    The protocol and adversary are supplied either as factories (the
    callable escape hatch — adversaries hold per-run mutable state, so each
    trial gets a fresh instance) or as declarative specs
    (:class:`~repro.spec.ProtocolSpec` / :class:`~repro.spec.AdversarySpec`),
    which the runner builds into factories itself.  Both paths construct the
    same classes with the same parameters, so they are seed-for-seed
    identical.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.metrics.MetricPipeline` (or
        :class:`~repro.spec.PipelineSpec`) of columnar reducers, fed every
        finished trial in order.  Runs on every backend and under
        ``workers > 1`` via ordered shard merges; exposed afterwards as
        :attr:`TrialStudy.pipeline`.
    streaming:
        Release each trial's O(horizon) prefix columns once the pipeline has
        reduced it, keeping only reducer state and O(1) summaries.
        Incompatible with ``keep_trace``.
    backend:
        Study-level backend selection (see the module docstring).
    workers:
        Number of forked worker processes; 1 means serial execution.  Trials
        are sharded contiguously across workers, and each shard walks the
        backend ladder.  Results are returned in trial order and are
        seed-for-seed identical to a serial run.
    """

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        adversary_factory: AdversaryFactory,
        config: SimulatorConfig,
        label: str = "",
        backend: str = AUTO_BACKEND,
        workers: int = 1,
        pipeline=None,
        streaming: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if backend not in LADDERS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: {', '.join(LADDERS)}"
            )
        if streaming and config.keep_trace:
            raise ConfigurationError(
                "streaming releases per-slot data; it cannot be combined "
                "with keep_trace"
            )
        protocol_factory, adversary_factory = _coerce_factories(
            protocol_factory, adversary_factory, config.horizon
        )
        self._protocol_factory = protocol_factory
        self._adversary_factory = adversary_factory
        self._config = config
        self._label = label
        self._backend = backend
        self._workers = workers
        self._pipeline = _coerce_pipeline(pipeline)
        self._streaming = streaming

    def run_single(self, seed: SeedLike) -> SimulationResult:
        """Execute one trial on the root seed tree, through the ladder.

        The trial draws from ``SeedTree(seed)``, the tree
        ``Simulator(seed=...)`` uses, runs on the rung
        :meth:`explain_backend` selects, and records an int ``seed`` as
        that Simulator would.
        """
        result = self._run_chunk([SeedTree(seed)])[0]
        if isinstance(seed, int):
            result.seed = seed
        return result

    def run(self, trials: int, seed: SeedLike = None) -> TrialStudy:
        if trials < 1:
            raise ConfigurationError("trials must be >= 1")
        seeds = TrialSeedBatch(seed, trials)
        workers = min(self._workers, trials)
        # Each run reduces into a fresh clone, so studies from consecutive
        # run() calls never share (or overwrite) each other's metrics.
        pipeline = self._pipeline.fresh() if self._pipeline is not None else None
        health = RunHealth(requested_workers=self._workers)
        study = TrialStudy(label=self._label, pipeline=pipeline, health=health)
        with collecting(health):
            if workers > 1:
                if "fork" in multiprocessing.get_all_start_methods():
                    results, shard_pipelines = self._run_parallel(
                        seeds.trees, workers, health
                    )
                    study.results.extend(results)
                    if pipeline is not None:
                        # Shards are contiguous trial ranges; merging their
                        # partials left to right reproduces the serial
                        # reduction.
                        for shard_pipeline in shard_pipelines:
                            pipeline.merge(shard_pipeline)
                    study.effective_workers = workers
                    health.effective_workers = workers
                    return study
                health.record(
                    "fallback",
                    "pool",
                    "platform lacks the 'fork' start method; running serially",
                )
                warnings.warn(
                    "workers>1 requires the 'fork' start method, which this "
                    "platform lacks; running trials serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
            study.results.extend(self._run_chunk(seeds, pipeline))
        return study

    # ------------------------------------------------------------- internals

    def _absorb(self, result: SimulationResult, pipeline) -> SimulationResult:
        """Reduce one finished trial; in streaming mode drop its columns."""
        if pipeline is not None:
            pipeline.update(result)
        if self._streaming:
            result.release_counters()
        return result

    def _ladder(
        self, probe: StudyProbe
    ) -> Iterator[Tuple[Any, str, str, Optional[str]]]:
        """Walk the backend's ladder: ``(kernel, name, status, reason)`` per rung.

        The rungs are ``LADDERS[backend]``, in order.  ``status`` is
        ``eligible``, ``ineligible`` or ``skipped`` (``auto`` skips
        ``lockstep-jit`` when the interpreter cannot take the study at all);
        ``reason`` says why a rung is not eligible.  The last rung is the
        per-trial path, whose kernel is the
        :class:`~repro.sim.backends.SlotKernel` every trial runs.  A rung
        the backend names itself that cannot run raises
        :class:`~repro.errors.ConfigurationError`.  The walk is lazy, so
        dispatch, which stops at the first rung that runs, never probes the
        rungs below it.
        """
        for kernel_class in LADDERS[self._backend]:
            kernel = kernel_class()
            name = kernel.name
            if isinstance(kernel, SlotKernel):
                # Slot-kernel eligibility reads the protocol, the
                # adversary's flags and the channel type only, never the
                # seed trees.
                reason = kernel.unsupported_reason(
                    KernelContext(
                        protocol_factory=self._protocol_factory,
                        adversary=probe.adversary,
                        config=self._config,
                        channel=MultipleAccessChannel(),
                        adversary_tree=None,
                        node_tree=None,
                        seed=None,
                        protocol_name="",
                    )
                )
                rung = f"per-trial ({name})"
            else:
                if self._backend == AUTO_BACKEND and name == COMPILED_BACKEND:
                    skip = kernel.auto_skip_reason(self._config, probe)
                    if skip is not None:
                        yield kernel, name, "skipped", skip
                        continue
                reason = kernel.unsupported_reason(
                    self._protocol_factory,
                    self._adversary_factory,
                    self._config,
                    probe,
                )
                rung = name
            if reason is None:
                yield kernel, rung, "eligible", None
            elif self._backend == name:
                raise ConfigurationError(f"backend {name!r} unavailable: {reason}")
            else:
                yield kernel, rung, "ineligible", reason

    def _run_chunk(
        self,
        seeds: Union[List[SeedTree], TrialSeedBatch],
        pipeline=None,
    ) -> List[SimulationResult]:
        """Run a contiguous shard of trials on the first eligible rung.

        A study kernel that bails at run time (returns ``None``) never
        consumes trial seeds, so moving on to the next eligible rung stays
        seed-for-seed identical.
        """
        faults.active_plan().maybe_raise("kernel", trials=len(seeds))
        protocol_name = (
            getattr(self._protocol_factory, "protocol_name", None) or "protocol"
        )
        # One probe per dispatch: every rung's eligibility questions reuse
        # the same memoized protocol/program/adversary instances instead of
        # re-invoking the factories per kernel.
        probe = StudyProbe(self._protocol_factory, self._adversary_factory)
        for kernel, name, status, _ in self._ladder(probe):
            if status != "eligible":
                continue
            if isinstance(kernel, SlotKernel):
                break
            results = kernel.run_study(
                self._protocol_factory,
                self._adversary_factory,
                self._config,
                seeds,
                protocol_name=protocol_name,
                probe=probe,
            )
            if results is not None:
                return [self._absorb(result, pipeline) for result in results]
            # The study bailed without consuming any trial seeds (oversized
            # block, missing probability vector, slow seed path, ...).
            note_demotion(
                name,
                "per-trial ladder",
                "study kernel bailed at run time (oversized block, "
                "slow seed path, or unreplicable streams)",
            )
        # The walk ends on the per-trial rung, which is always eligible.
        trees = seeds.trees if isinstance(seeds, TrialSeedBatch) else seeds
        return [
            self._absorb(
                Simulator(
                    protocol_factory=self._protocol_factory,
                    adversary=self._adversary_factory(),
                    config=self._config,
                    seed=tree,
                    backend=kernel.name,
                ).run(),
                pipeline,
            )
            for tree in trees
        ]

    def explain_backend(self) -> List[Dict[str, str]]:
        """Dry-run the backend ladder: per rung, would it run and why.

        Formats the walk dispatch reads (:meth:`_ladder`), without consuming
        seeds or executing anything, so the ``selected`` row is the rung
        :meth:`run` takes.  Each row carries ``backend``, ``status``
        (``selected`` / ``eligible`` / ``skipped`` / ``ineligible``) and a
        human ``reason``; exactly one row is ``selected``.  An explicitly
        requested backend that cannot run raises the error :meth:`run`
        raises.  Run-time demotions (a kernel bailing mid-dispatch) are not
        predictable here — they surface on the executed study's
        :class:`~repro.sim.health.RunHealth` instead.
        """
        from .backends.compiled import interpreter_mode

        probe = StudyProbe(self._protocol_factory, self._adversary_factory)
        rows: List[Dict[str, str]] = []
        selected = False
        for _, name, status, reason in self._ladder(probe):
            if status == "eligible":
                if selected:
                    reason = "shadowed by a higher rung"
                else:
                    status, selected = "selected", True
                    reason = "first eligible rung of the backend ladder"
                if name == COMPILED_BACKEND:
                    mode = interpreter_mode()
                    reason += f" (interpreter mode: {mode}" + (
                        "; will demote to the numpy lockstep kernel)"
                        if mode == "off"
                        else ")"
                    )
            rows.append({"backend": name, "status": status, "reason": reason})
        return rows

    def _run_parallel(
        self, seeds: List[SeedTree], workers: int, health: RunHealth
    ) -> Tuple[List[SimulationResult], List[Any]]:
        """Dispatch contiguous shards to supervised worker processes.

        Each shard runs in its own forked process with async result
        collection, so one worker crashing or hanging can neither take the
        study down nor block it forever.  Every shard is dispatched at once.
        A shard that crashes, raises, or outlives ``REPRO_SHARD_TIMEOUT``
        (read here, once per run) is re-dispatched after each backoff of
        ``_RETRY_BACKOFFS`` (identical trial ranges → identical results),
        and then runs in-process.  Shard results and pipeline partials are
        merged in shard index (= trial) order regardless of completion order.
        """
        timeout = _shard_timeout()
        chunks = _contiguous_chunks(seeds, workers)
        context = multiprocessing.get_context("fork")
        pending = deque()
        lo = 0
        for index, chunk in enumerate(chunks):
            pending.append(
                _ShardTask(index, chunk, trial_lo=lo, trial_hi=lo + len(chunk))
            )
            lo += len(chunk)
        #: sentinel -> (task, process, parent_conn, deadline)
        running: Dict[Any, Tuple[_ShardTask, Any, Any, Optional[float]]] = {}
        shard_results: Dict[int, List[SimulationResult]] = {}
        shard_pipelines: Dict[int, Any] = {}
        try:
            while pending or running:
                while pending:
                    task = pending.popleft()
                    if task.attempt > len(_RETRY_BACKOFFS):
                        self._shard_exhausted(
                            task, health, shard_results, shard_pipelines
                        )
                        continue
                    if task.attempt > 0:
                        time.sleep(_RETRY_BACKOFFS[task.attempt - 1])
                        health.record(
                            "retry",
                            "worker",
                            f"shard {task.index} (trials "
                            f"{task.trial_lo}..{task.trial_hi - 1}) "
                            f"re-dispatched",
                            shard=task.index,
                            attempt=task.attempt,
                        )
                    parent_conn, child_conn = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_shard_entry,
                        args=(
                            self,
                            task.chunk,
                            child_conn,
                            task.index,
                            task.attempt,
                        ),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    deadline = (
                        None if timeout is None else time.monotonic() + timeout
                    )
                    running[process.sentinel] = (
                        task, process, parent_conn, deadline
                    )
                if running:
                    self._collect_ready(
                        running,
                        pending,
                        health,
                        timeout,
                        shard_results,
                        shard_pipelines,
                    )
        except BaseException:
            for _, process, conn, _ in running.values():
                _reap(process, conn)
            raise
        results = [
            result
            for index in range(len(chunks))
            for result in shard_results[index]
        ]
        pipelines = [
            shard_pipelines[index]
            for index in range(len(chunks))
            if shard_pipelines.get(index) is not None
        ]
        return results, pipelines

    def _collect_ready(
        self,
        running: Dict[Any, Tuple[_ShardTask, Any, Any, Optional[float]]],
        pending,
        health: RunHealth,
        timeout: Optional[float],
        shard_results: Dict[int, List[SimulationResult]],
        shard_pipelines: Dict[int, Any],
    ) -> None:
        """Wait for any shard event, then settle every decided shard."""
        waitables = []
        now = time.monotonic()
        wait_timeout: Optional[float] = None
        for sentinel, (_, _, conn, deadline) in running.items():
            waitables.extend((conn, sentinel))
            if deadline is not None:
                remaining = max(0.0, deadline - now)
                wait_timeout = (
                    remaining
                    if wait_timeout is None
                    else min(wait_timeout, remaining)
                )
        connection.wait(waitables, timeout=wait_timeout)
        now = time.monotonic()
        for sentinel in list(running):
            task, process, conn, deadline = running[sentinel]
            failure: Optional[Tuple[str, str]] = None
            # Liveness must be sampled BEFORE the pipe: a worker that sends
            # its result and exits between the two checks would otherwise
            # read as dead-with-empty-pipe (a phantom crash).  Observed dead
            # first, any completed send is already visible to poll().
            was_alive = process.is_alive()
            if conn.poll():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    failure = ("crash", _exit_detail(process))
                else:
                    if message[0] == "ok":
                        _, results, pipeline, events = message
                        shard_results[task.index] = results
                        shard_pipelines[task.index] = pipeline
                        health.extend(list(events), shard=task.index)
                    else:
                        failure = ("error", message[1])
            elif not was_alive:
                failure = ("crash", _exit_detail(process))
            elif deadline is not None and now >= deadline:
                failure = ("hang", f"no result within {timeout}s; worker terminated")
            else:
                continue  # still running
            del running[sentinel]
            _reap(process, conn)
            if failure is None:
                continue
            kind, detail = failure
            health.record(
                kind, "worker", detail, shard=task.index, attempt=task.attempt
            )
            pending.append(replace(task, attempt=task.attempt + 1))

    def _shard_exhausted(
        self,
        task: _ShardTask,
        health: RunHealth,
        shard_results: Dict[int, List[SimulationResult]],
        shard_pipelines: Dict[int, Any],
    ) -> None:
        """Retry budget spent: run the shard in-process."""
        health.record(
            "fallback",
            "worker",
            f"shard {task.index} degraded to in-process serial execution "
            f"after {task.attempt} failed attempt(s)",
            shard=task.index,
            attempt=task.attempt,
        )
        pipeline = (
            self._pipeline.fresh() if self._pipeline is not None else None
        )
        shard_results[task.index] = self._run_chunk(task.chunk, pipeline)
        shard_pipelines[task.index] = pipeline


def _shard_timeout() -> Optional[float]:
    """``REPRO_SHARD_TIMEOUT`` in seconds, or None (no hang detection) if unset."""
    text = os.environ.get("REPRO_SHARD_TIMEOUT")
    if not text:
        return None
    try:
        timeout = float(text)
        if not 0 < timeout < float("inf"):
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            "REPRO_SHARD_TIMEOUT must be a positive, finite number of "
            f"seconds, got {text!r}"
        ) from None
    return timeout


def _exit_detail(process) -> str:
    """Describe how a shard process died (exit code or signal)."""
    process.join(timeout=1.0)
    code = process.exitcode
    if code is None:
        return "worker exited without reporting a result"
    if code < 0:
        return f"worker killed by signal {-code}"
    return f"worker exited with code {code} without reporting a result"


def _reap(process, conn) -> None:
    """Tear down a settled (or condemned) shard process and its pipe."""
    try:
        conn.close()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - terminate() ignored
            process.kill()
            process.join(timeout=1.0)
    else:
        process.join(timeout=1.0)
    try:
        process.close()
    except Exception:  # pragma: no cover - interpreter variations
        pass


def _contiguous_chunks(seeds: List[SeedTree], workers: int) -> List[List[SeedTree]]:
    """Split seeds into at most ``workers`` contiguous, near-even shards."""
    count = len(seeds)
    workers = min(workers, count)
    bounds = np.linspace(0, count, workers + 1).astype(int)
    return [
        list(seeds[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def run_trials(
    protocol_factory: ProtocolFactory,
    adversary_factory: AdversaryFactory,
    horizon: int,
    trials: int = 5,
    seed: SeedLike = None,
    keep_trace: bool = False,
    stop_when_drained: bool = False,
    label: str = "",
    backend: str = AUTO_BACKEND,
    workers: int = 1,
    pipeline=None,
    streaming: bool = False,
) -> TrialStudy:
    """Convenience wrapper: build the config and runner and execute the trials.

    ``protocol_factory`` / ``adversary_factory`` accept either plain
    callables or declarative specs (:class:`~repro.spec.ProtocolSpec` /
    :class:`~repro.spec.AdversarySpec`); see :class:`TrialRunner`.  For a
    fully declarative entry point use :meth:`repro.spec.StudySpec.run`.
    """
    config = SimulatorConfig(
        horizon=horizon,
        keep_trace=keep_trace,
        stop_when_drained=stop_when_drained,
    )
    runner = TrialRunner(
        protocol_factory,
        adversary_factory,
        config,
        label=label,
        backend=backend,
        workers=workers,
        pipeline=pipeline,
        streaming=streaming,
    )
    return runner.run(trials=trials, seed=seed)
