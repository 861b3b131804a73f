"""Span recorder for the traced benchmark run.

Wraps the public functions where one module of ``repro`` calls the next
(the LAYERS table below) and records, per thread:

* an aggregate per span name: calls, self time and total time;
* a full span (name, start, end, parent, thread, attributes) for the
  coarse names in ``COARSE``, which are called at most a few thousand times
  per run; the per-slot names would cost more to store than to run.

Self time is a span's duration minus the time its wrapped children cover.
A call nested directly in a span of the same name is merged into it (for
example ``NodeStreamPool.doubles`` calling ``raw64``), so each name's
self times add up without double counting.  Everything stays in memory
until :meth:`Tracer.dump` writes it out at the end of the run.

Nothing here changes ``repro``: wrappers are installed by patching class
attributes and every ``repro`` module global that refers to a wrapped
function, after ``repro`` has been imported.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Span names recorded in full; all others are aggregated only.
COARSE = (
    "experiments.",
    "spec.expand",
    "spec.fusion_plan",
    "sim.dispatch",
    "sim.batched",
    "sim.lockstep_loop",
    "serve.",
)
MAX_SPANS = 200_000


class _ThreadState:
    __slots__ = ("name", "stack", "agg", "counts", "attrs", "paused")

    def __init__(self) -> None:
        self.name = threading.current_thread().name
        self.stack: List[list] = []
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.attrs: Dict[str, Any] = {}
        self.paused = False


class Tracer:
    """Per-thread span stacks plus in-memory spans and aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.spans: List[Dict[str, Any]] = []
        self.dropped_spans = 0

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + amount

    def tag(self, **attrs: Any) -> None:
        """Attributes attached to this thread's next coarse spans."""
        self.state().attrs = attrs

    @contextlib.contextmanager
    def paused(self):
        """Calls on this thread bypass every wrapper inside the block."""
        state = self.state()
        previous, state.paused = state.paused, True
        try:
            yield
        finally:
            state.paused = previous

    def wrap(
        self,
        name: Any,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", Any, tuple, dict], None]] = None,
        attrs: Optional[Callable[[tuple, dict], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name`` (or ``name(args)``)."""
        tracer = self
        fixed = isinstance(name, str)
        coarse_fixed = fixed and name.startswith(COARSE)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer.state()
            if state.paused:
                return fn(*args, **kwargs)
            span = name if fixed else name(args, kwargs)
            stack = state.stack
            if stack and stack[-1][0] == span:
                # Merged into the enclosing span, whose on_result counts
                # the same result (e.g. the compiled kernel's demotion to
                # the numpy lockstep kernel).
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry = state.agg.get(span)
                if entry is None:
                    entry = state.agg[span] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if stack:
                    stack[-1][1] += duration
                if coarse_fixed or (not fixed and span.startswith(COARSE)):
                    tracer._record(state, span, start, end, args, kwargs, attrs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, state, span, start, end, args, kwargs, attrs) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        parent = state.stack[-1][0] if state.stack else None
        record: Dict[str, Any] = {
            "name": span,
            "start": start,
            "end": end,
            "parent": parent,
            "thread": state.name,
        }
        if state.attrs:
            record.update(state.attrs)
        if attrs is not None:
            with self.paused():
                record.update(attrs(args, kwargs))
        self.spans.append(record)

    # ----------------------------------------------------------------- output

    def snapshot(self) -> Dict[str, Any]:
        """Aggregates per thread plus the recorded spans (JSON-ready)."""
        with self._lock:
            states = list(self._states)
        threads = []
        for state in states:
            threads.append(
                {
                    "thread": state.name,
                    "aggregates": {
                        name: {"calls": int(v[0]), "self_s": v[1], "total_s": v[2]}
                        for name, v in sorted(state.agg.items())
                    },
                    "counts": dict(sorted(state.counts.items())),
                }
            )
        return {
            "threads": threads,
            "spans": list(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def dump(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        data = self.snapshot()
        if extra:
            data.update(extra)
        with open(path, "w") as handle:
            json.dump(data, handle)


# --------------------------------------------------------------- installation


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:Owner.attr"`` or ``"module:function"`` -> (owner, attr, value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _subclasses(cls) -> List[type]:
    seen: List[type] = []
    stack = [cls]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.append(current)
            stack.extend(current.__subclasses__())
    return seen


def _replace_function(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at the
    replacement (``from x import f`` copies the reference)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(
    tracer: Tracer,
    layers: Sequence[Tuple[Any, Sequence[str], Dict[str, Any]]],
) -> None:
    """Wrap every target of ``layers``.

    Each layer is ``(span name, targets, options)``.  A target naming a
    method wraps it on that class; with ``options["family"]`` it also wraps
    every subclass that defines its own version.  A target naming a module
    function replaces every reference to it across the loaded ``repro``
    modules.  A target that no longer exists raises, so a renamed boundary
    cannot silently drop out of the trace.
    """
    for name, targets, options in layers:
        on_result = options.get("on_result")
        attrs = options.get("attrs")
        for target in targets:
            owner, attr, value = _resolve(target)
            if isinstance(owner, type):
                classes = _subclasses(owner) if options.get("family") else [owner]
                for cls in classes:
                    raw = cls.__dict__.get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        kind = type(raw)
                        setattr(
                            cls,
                            attr,
                            kind(tracer.wrap(name, raw.__func__, on_result, attrs)),
                        )
                    else:
                        setattr(cls, attr, tracer.wrap(name, raw, on_result, attrs))
            else:
                _replace_function(value, tracer.wrap(name, value, on_result, attrs))


# ------------------------------------------------------------- layer tables


def _slots_of(results) -> int:
    return sum(int(getattr(result, "horizon", 0)) for result in results)


def _count_study(tracer: Tracer, study, args, kwargs) -> None:
    """sim.studies.<backend>, sim.demotions for one TrialRunner.run result."""
    results = getattr(study, "results", None) or []
    backend = str(getattr(results[0], "backend", "unknown")) if results else "none"
    tracer.count(f"sim.studies.{backend}")
    health = getattr(study, "health", None)
    events = getattr(health, "events", None) or []
    demotions = sum(1 for event in events if getattr(event, "kind", "") == "demotion")
    if demotions:
        tracer.count("sim.demotions", demotions)


def _count_lockstep(tracer: Tracer, results, args, kwargs) -> None:
    if results:
        tracer.count("sim.trial_slots", _slots_of(results))


def _count_fused(tracer: Tracer, studies, args, kwargs) -> None:
    if not studies:
        return
    tracer.count("spec.fused_points", len(studies))
    tracer.count(
        "sim.trial_slots",
        sum(_slots_of(getattr(study, "results", [])) for study in studies),
    )
    for study in studies:
        events = getattr(getattr(study, "health", None), "events", None) or []
        demotions = sum(
            1 for event in events if getattr(event, "kind", "") == "demotion"
        )
        if demotions:
            tracer.count("sim.demotions", demotions)


def _count_planned(tracer: Tracer, groups, args, kwargs) -> None:
    pending = args[0] if args else kwargs.get("pending", [])
    tracer.count("spec.fusion_points", len(pending))


def _count_put_bytes(tracer: Tracer, path, args, kwargs) -> None:
    try:
        tracer.count("spec.store_put_bytes", path.stat().st_size)
    except (AttributeError, OSError):
        pass


def _experiment_span(args, kwargs) -> str:
    experiment_id = args[0] if args else kwargs.get("experiment_id", "E?")
    return f"experiments.{experiment_id}"


_PROGRAM_CLASSES = (
    "repro.core.protocol:CJZLockstepProgram",
    "repro.protocols.binary_exponential:WindowedBackoffLockstepProgram",
    "repro.protocols.sawtooth:SawtoothLockstepProgram",
    "repro.sim.backends.fused:_CompositeLockstepProgram",
)
_POOL = "repro.rng:NodeStreamPool"
_DRIVER = "repro.adversary.columnar:LockstepAdversaryDriver"

#: (span name, targets, options) for every layer boundary below ``repro``'s
#: public entry points.  Order matters only where one function is wrapped
#: twice (the serve layer wraps the daemon's already-wrapped calls).
LAYERS: List[Tuple[Any, List[str], Dict[str, Any]]] = [
    ("spec.expand", ["repro.spec.sweep:Sweep.expand", "repro.spec.sweep:StudyPlan.from_sweep"], {}),
    ("spec.hash", ["repro.spec.study:StudySpec.spec_hash"], {}),
    (
        "spec.fusion_plan",
        ["repro.sim.backends.fused:plan_fusion_groups"],
        {"on_result": _count_planned},
    ),
    ("spec.store_get", ["repro.spec.store:StudyStore.get"], {}),
    (
        "spec.store_put",
        ["repro.spec.store:StudyStore.put"],
        {"on_result": _count_put_bytes},
    ),
    ("sim.dispatch", ["repro.sim.runner:TrialRunner.run"], {"on_result": _count_study}),
    ("sim.reference", ["repro.sim.backends.reference:ReferenceKernel.run"], {}),
    ("sim.vectorized", ["repro.sim.backends.vectorized:VectorizedKernel.run"], {}),
    ("sim.batched", ["repro.sim.backends.batched:BatchedStudyKernel.run_study"], {}),
    (
        "sim.lockstep_loop",
        [
            "repro.sim.backends.lockstep:LockstepStudyKernel.run_study",
            "repro.sim.backends.compiled:CompiledStudyKernel.run_study",
        ],
        {"on_result": _count_lockstep},
    ),
    (
        "sim.lockstep_loop",
        ["repro.sim.backends.fused:run_fused_group"],
        {"on_result": _count_fused},
    ),
    (
        "sim.seed_plan",
        [
            "repro.sim.backends.studysupport:SeedPlan.build",
            "repro.sim.backends.studysupport:SeedPlan.node_states_pairs",
            "repro.sim.backends.studysupport:SeedPlan.adversary_generator_states",
            "repro.sim.backends.fused:_FusedSeedPlan.node_states_pairs",
        ],
        {},
    ),
    (
        "sim.emit",
        [
            "repro.sim.backends.studysupport:emit_study_results",
            "repro.sim.backends.lockstep:emit_lockstep_results",
        ],
        {},
    ),
    (
        "rng.replay",
        [f"{_POOL}.{m}" for m in ("raw64", "doubles", "next_u32", "bounded_u32", "pow2_batch", "bounded_scalar")],
        {},
    ),
    ("rng.seed", [f"{_POOL}.seed_rows", "repro.rng:bulk_seed_states"], {}),
    ("protocols.bind", [f"{c}.{m}" for c in _PROGRAM_CLASSES for m in ("bind", "grow", "arrive")], {}),
    ("protocols.step", [f"{c}.step" for c in _PROGRAM_CLASSES], {}),
    ("protocols.feedback", [f"{c}.feedback" for c in _PROGRAM_CLASSES], {}),
    (
        "protocols.scalar",
        ["repro.protocols.base:Protocol.wants_to_broadcast", "repro.protocols.base:Protocol.on_feedback"],
        {"family": True},
    ),
    ("adversary.driver", [f"{_DRIVER}.actions", f"{_DRIVER}.observe"], {"family": True}),
    (
        "adversary.build",
        [
            "repro.sim.backends.lockstep:build_lockstep_driver",
            "repro.sim.backends.studysupport:compile_adversary_schedules",
        ],
        {},
    ),
    (
        "adversary.scalar",
        ["repro.adversary.base:Adversary.action_for_slot", "repro.adversary.base:Adversary.observe"],
        {"family": True},
    ),
    ("channel.resolve", ["repro.channel.multiple_access:MultipleAccessChannel.resolve"], {}),
    (
        "metrics.reduce",
        [f"repro.metrics.pipeline:MetricPipeline.{m}" for m in ("update", "merge", "finalize")],
        {},
    ),
    (_experiment_span, ["repro.experiments.base:run_experiment"], {}),
    (
        "analysis",
        [
            "repro.analysis.statistics:summarize",
            "repro.analysis.statistics:bootstrap_confidence_interval",
            "repro.analysis.statistics:empirical_probability",
            "repro.analysis.fitting:fit_shape",
            "repro.analysis.fitting:best_fit",
            "repro.analysis.fitting:growth_exponent",
            "repro.analysis.comparison:compare_protocols",
            "repro.analysis.comparison:comparison_table",
            "repro.analysis.tables:format_table",
        ],
        {},
    ),
]


def _spec_hash_attr(args, kwargs) -> Dict[str, Any]:
    return {"hash": args[0].spec_hash()[:16]} if args else {}


def _group_hash_attr(args, kwargs) -> Dict[str, Any]:
    specs = args[0] if args else kwargs.get("specs", [])
    return {"hash": [spec.spec_hash()[:16] for spec in specs]}


def _count_fused_group(tracer: Tracer, studies, args, kwargs) -> None:
    if studies is not None:
        tracer.count("serve.fused_groups")


#: Extra layers inside the sweep-service daemon.
SERVE_LAYERS: List[Tuple[Any, List[str], Dict[str, Any]]] = [
    (
        "serve.decode",
        ["repro.serve.protocol:decode_line", "repro.spec.study:StudySpec.from_dict"],
        {},
    ),
    (
        "serve.encode",
        ["repro.serve.server:study_payload", "repro.serve.protocol:encode_message"],
        {},
    ),
    ("serve.store_get", ["repro.serve.sharded:ShardedStudyStore.get"], {}),
    ("serve.store_put", ["repro.serve.sharded:ShardedStudyStore.put"], {}),
    ("serve.wal", ["repro.serve.wal:ServeJournal.record"], {}),
    ("serve.run", ["repro.spec.study:StudySpec.run"], {"attrs": _spec_hash_attr}),
    (
        "serve.run",
        ["repro.sim.backends.fused:run_fused_group"],
        {"attrs": _group_hash_attr, "on_result": _count_fused_group},
    ),
]

#: Client side of the sweep service.
CLIENT_LAYERS: List[Tuple[Any, List[str], Dict[str, Any]]] = [
    ("serve.client_submit", ["repro.serve.client:ServeClient.submit"], {}),
]


def load_modules() -> None:
    """Import every module the layer tables name, so that their functions
    exist to be wrapped (and their importers hold the originals)."""
    for layers in (LAYERS, SERVE_LAYERS, CLIENT_LAYERS):
        for _name, targets, _options in layers:
            for target in targets:
                importlib.import_module(target.partition(":")[0])
    importlib.import_module("repro.experiments")
    importlib.import_module("repro.cli")


# ------------------------------------------------------------------ metrics


def merge_traces(traces: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """Sum aggregates (calls, self, total) and counts over traces and threads."""
    agg: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for trace in traces:
        for thread in trace.get("threads", []):
            for name, entry in thread["aggregates"].items():
                slot = agg.setdefault(name, [0, 0.0, 0.0])
                slot[0] += entry["calls"]
                slot[1] += entry["self_s"]
                slot[2] += entry["total_s"]
            for name, value in thread["counts"].items():
                counts[name] = counts.get(name, 0) + value
    return agg, counts


#: Per-layer metrics: (name, unit).  Every traced run emits all of them;
#: a layer a workload never reaches reads 0.
TIME_LAYERS = [
    ("spec.expand_s", "spec.expand"),
    ("spec.hash_s", "spec.hash"),
    ("spec.fusion_plan_s", "spec.fusion_plan"),
    ("spec.store_get_s", "spec.store_get"),
    ("spec.store_put_s", "spec.store_put"),
    ("sim.dispatch_s", "sim.dispatch"),
    ("sim.reference_s", "sim.reference"),
    ("sim.vectorized_s", "sim.vectorized"),
    ("sim.batched_s", "sim.batched"),
    ("sim.lockstep_loop_s", "sim.lockstep_loop"),
    ("sim.seed_plan_s", "sim.seed_plan"),
    ("sim.emit_s", "sim.emit"),
    ("rng.replay_s", "rng.replay"),
    ("rng.seed_s", "rng.seed"),
    ("protocols.bind_s", "protocols.bind"),
    ("protocols.step_s", "protocols.step"),
    ("protocols.feedback_s", "protocols.feedback"),
    ("protocols.scalar_s", "protocols.scalar"),
    ("adversary.driver_s", "adversary.driver"),
    ("adversary.build_s", "adversary.build"),
    ("adversary.scalar_s", "adversary.scalar"),
    ("channel.resolve_s", "channel.resolve"),
    ("metrics.reduce_s", "metrics.reduce"),
    *[(f"experiments.E{i}_s", f"experiments.E{i}") for i in range(1, 11)],
    ("analysis.s", "analysis"),
    ("serve.decode_s", "serve.decode"),
    ("serve.encode_s", "serve.encode"),
    ("serve.store_get_s", "serve.store_get"),
    ("serve.store_put_s", "serve.store_put"),
    ("serve.wal_s", "serve.wal"),
    ("serve.run_s", "serve.run"),
    ("serve.client_submit_s", "serve.client_submit"),
]
CALL_LAYERS = [
    ("spec.hash_calls", "spec.hash"),
    ("spec.store_get_calls", "spec.store_get"),
    ("spec.store_put_calls", "spec.store_put"),
    ("rng.replay_calls", "rng.replay"),
    ("protocols.scalar_calls", "protocols.scalar"),
    ("adversary.scalar_calls", "adversary.scalar"),
    ("channel.resolve_calls", "channel.resolve"),
]
COUNTS = [
    ("sim.studies.reference", "count"),
    ("sim.studies.vectorized", "count"),
    ("sim.studies.batched-study", "count"),
    ("sim.studies.lockstep", "count"),
    ("sim.trial_slots", "count"),
    ("sim.demotions", "count"),
    ("spec.store_put_bytes", "bytes"),
    ("serve.fused_groups", "count"),
]
SERVE_CLIENT = [
    ("serve.job_run_s", "s"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.executed", "count"),
    ("serve.cache_hits", "count"),
    ("serve.deduped", "count"),
    ("serve.failed", "count"),
]
ACCOUNTING = [
    ("spec.fused_point_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name, _ in TIME_LAYERS}
    units.update({name: "count" for name, _ in CALL_LAYERS})
    units.update(dict(COUNTS))
    units.update(dict(SERVE_CLIENT))
    units.update(dict(ACCOUNTING))
    return units


def per_layer_metrics(
    traces: List[Dict[str, Any]],
    identity: Dict[str, float],
    serve: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of one traced run, derived from its trace files."""
    agg, counts = merge_traces(traces)
    values: Dict[str, float] = {}
    for name, span in TIME_LAYERS:
        values[name] = agg.get(span, [0, 0.0, 0.0])[1]
    for name, span in CALL_LAYERS:
        values[name] = agg.get(span, [0, 0.0, 0.0])[0]
    for name, _unit in COUNTS:
        values[name] = counts.get(name, 0)
    for name, _unit in SERVE_CLIENT:
        values[name] = serve.get(name, 0)
    # Points fused by StudyPlan.run over the points it planned.  The daemon
    # never plans (it drains queued jobs into groups, which
    # serve.fused_groups counts), so its fused points are left out.
    planned = fused = 0
    for trace in traces:
        trace_counts = merge_traces([trace])[1]
        if trace_counts.get("spec.fusion_points"):
            planned += trace_counts["spec.fusion_points"]
            fused += trace_counts.get("spec.fused_points", 0)
    values["spec.fused_point_ratio"] = fused / planned if planned else 0.0
    values.update(identity)
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def identity_of(trace: Dict[str, Any], threads: List[str], wall: float) -> Dict[str, float]:
    """traced wall time = Σ self times of the spans on ``threads`` + the rest."""
    spent = 0.0
    for thread in trace["threads"]:
        if thread["thread"] in threads:
            spent += sum(entry["self_s"] for entry in thread["aggregates"].values())
    return {"trace.wall_s": wall, "trace.self_s": spent, "unattributed_s": wall - spent}
