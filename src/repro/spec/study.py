"""StudySpec: the complete, serializable description of a trial study.

A :class:`StudySpec` bundles *what* to run (a protocol spec and an adversary
spec) with *how* to run it (horizon, trial count, seed, early-stop policy)
and *where* (backend, workers).  It round-trips through JSON, hashes stably
(:meth:`StudySpec.spec_hash`) for content-addressed result caching, and
executes through the exact same :func:`repro.sim.run_trials` ladder as the
callable-factory API — a spec-built study is seed-for-seed identical to one
assembled by hand from the same classes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from ..errors import SpecError
from .adversary import AdversarySpec
from .pipeline import PipelineSpec
from .protocol import ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.runner import TrialStudy

__all__ = ["StudySpec", "canonical_json"]

#: Fields that describe execution placement, not the experiment itself.
#: They are excluded from :meth:`StudySpec.spec_hash` because every backend /
#: worker combination is seed-for-seed identical by the simulator's core
#: invariant — results may be cached across them.  ``pipeline`` and
#: ``streaming`` are derived-metric / memory-policy knobs that likewise
#: cannot change the simulated trials.
_NON_SEMANTIC_FIELDS = ("backend", "workers", "label", "pipeline", "streaming")


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding used for spec hashing and storage keys."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StudySpec:
    """Declarative description of a multi-trial study."""

    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    horizon: int = 4096
    trials: int = 5
    seed: Optional[int] = 20210219
    backend: str = "auto"
    workers: int = 1
    stop_when_drained: bool = False
    keep_trace: bool = False
    label: str = ""
    pipeline: Optional[PipelineSpec] = None
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SpecError("horizon must be >= 1")
        if self.trials < 1:
            raise SpecError("trials must be >= 1")
        if self.workers < 1:
            raise SpecError("workers must be >= 1")
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError("seed must be an int or None (specs are JSON data)")
        if self.streaming and self.keep_trace:
            raise SpecError("streaming and keep_trace are mutually exclusive")
        from ..sim.backends import available_study_backends

        if self.backend not in available_study_backends():
            raise SpecError(
                f"unknown backend {self.backend!r}; available: "
                f"{', '.join(available_study_backends())}"
            )

    def __hash__(self) -> int:
        # Nested specs hold dicts, so the generated frozen-dataclass hash
        # would raise; hash the canonical serialized form (consistent with
        # __eq__, which compares the same content).
        return hash(canonical_json(self.to_dict()))

    # ------------------------------------------------------------ execution

    def run(self) -> "TrialStudy":
        """Execute the study through :func:`repro.sim.run_trials`.

        To serve and fill a result store, run the spec through
        :class:`~repro.spec.StudyPlan`, the one place specs meet a store.
        """
        from ..sim.runner import run_trials

        return run_trials(
            protocol_factory=self.protocol.build(),
            adversary_factory=self.adversary.factory(self.horizon),
            horizon=self.horizon,
            trials=self.trials,
            seed=self.seed,
            keep_trace=self.keep_trace,
            stop_when_drained=self.stop_when_drained,
            label=self.display_label,
            backend=self.backend,
            workers=self.workers,
            pipeline=self.pipeline,
            streaming=self.streaming,
        )

    @property
    def display_label(self) -> str:
        return self.label or f"{self.protocol.kind} vs {self.adversary.name}"

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "protocol": self.protocol.to_dict(),
            "adversary": self.adversary.to_dict(),
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "backend": self.backend,
            "workers": self.workers,
            "stop_when_drained": self.stop_when_drained,
            "keep_trace": self.keep_trace,
            "label": self.label,
        }
        # Optional execution extras are emitted only when set, so specs that
        # predate them serialize (and hash) exactly as before.
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline.to_dict()
        if self.streaming:
            data["streaming"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"study spec must be a mapping: {data!r}")
        unknown = sorted(
            set(data)
            - {
                "protocol",
                "adversary",
                "horizon",
                "trials",
                "seed",
                "backend",
                "workers",
                "stop_when_drained",
                "keep_trace",
                "label",
                "pipeline",
                "streaming",
            }
        )
        if unknown:
            raise SpecError(f"unknown study spec field(s): {', '.join(unknown)}")
        seed = data.get("seed", 20210219)
        pipeline = data.get("pipeline")
        if pipeline is not None and not isinstance(pipeline, PipelineSpec):
            pipeline = PipelineSpec.from_dict(pipeline)
        return cls(
            protocol=ProtocolSpec.from_dict(data.get("protocol", {"kind": "cjz"})),
            adversary=AdversarySpec.from_dict(data.get("adversary", {})),
            horizon=_integer("horizon", data.get("horizon", 4096)),
            trials=_integer("trials", data.get("trials", 5)),
            seed=None if seed is None else _integer("seed", seed),
            backend=str(data.get("backend", "auto")),
            workers=_integer("workers", data.get("workers", 1)),
            stop_when_drained=_flag(
                "stop_when_drained", data.get("stop_when_drained", False)
            ),
            keep_trace=_flag("keep_trace", data.get("keep_trace", False)),
            label=str(data.get("label", "")),
            pipeline=pipeline,
            streaming=_flag("streaming", data.get("streaming", False)),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid study spec JSON: {exc}") from exc
        return cls.from_dict(data)

    def spec_hash(self) -> str:
        """Content address of the study's *semantic* identity.

        Execution-placement fields (backend, workers) and the cosmetic label
        are excluded: they cannot change results, so caching across them is
        sound and lets e.g. a parallel sweep reuse a serial run's results.
        """
        data = self.to_dict()
        for key in _NON_SEMANTIC_FIELDS:
            data.pop(key, None)
        return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------ overrides

    def with_overrides(self, overrides: Mapping[str, Any]) -> "StudySpec":
        """A copy with dotted-path overrides applied.

        Paths address the :meth:`to_dict` representation, e.g.
        ``"adversary.jamming.params.fraction"``, ``"protocol.params.c3"`` or
        plain ``"horizon"``.  This is the primitive the sweep engine expands
        grids with.
        """
        if not overrides:
            return self
        data = self.to_dict()
        for path, value in overrides.items():
            _set_dotted(data, path, value)
        return self.from_dict(data)

    def with_execution(
        self,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        streaming: Optional[bool] = None,
    ) -> "StudySpec":
        """A copy with execution placement changed (hash-neutral)."""
        updates: Dict[str, Any] = {}
        if backend is not None:
            updates["backend"] = backend
        if workers is not None:
            updates["workers"] = workers
        if streaming is not None:
            updates["streaming"] = streaming
        return replace(self, **updates) if updates else self

    def with_pipeline(self, pipeline: Optional[PipelineSpec]) -> "StudySpec":
        """A copy with a metric pipeline attached (hash-neutral)."""
        return replace(self, pipeline=pipeline)


def _integer(name: str, value: Any) -> int:
    # int() reads True as 1 and truncates 128.9 to 128, which would run and
    # hash as another point.
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(
            f"study spec field {name!r} must be an integer, got {value!r}"
        ) from None


def _flag(name: str, value: Any) -> bool:
    # bool() reads "no", "false", [0] and 1 as True and {} and null as
    # False, which would run and hash as another point.
    if not isinstance(value, bool):
        raise SpecError(f"study spec field {name!r} must be a boolean, got {value!r}")
    return value


def _set_dotted(data: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    if not all(parts):
        raise SpecError(f"invalid override path {path!r}")
    cursor: Dict[str, Any] = data
    for part in parts[:-1]:
        nxt = cursor.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            cursor[part] = nxt
        cursor = nxt
    cursor[parts[-1]] = value
