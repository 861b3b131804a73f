"""Declarative adversary specs: composable arrivals + jamming, or whole adversaries.

Two shapes are supported, mirroring how the library builds adversaries:

* **Composed** (the default, ``kind="composed"``): an arrival-strategy spec
  plus a jamming-strategy spec, assembled into a
  :class:`~repro.adversary.ComposedAdversary`.  Every named scenario of
  :mod:`repro.workloads` is one of these.
* **Monolithic**: one of the paper's proof adversaries (``lower-bound``,
  ``non-adaptive-killer``, ``smooth``, ``adaptive-success-chaser``,
  ``schedule``), registered in :data:`ADVERSARIES`.

Adversary specs are *horizon-free*: every builder of the three registries
receives the horizon of the study that runs it as a context argument at
:meth:`AdversarySpec.build` time, which the proof adversaries and the
window/period defaults need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..adversary import (
    AdaptiveSuccessChaser,
    Adversary,
    BatchArrivals,
    BudgetedJamming,
    BurstyArrivals,
    ComposedAdversary,
    FrontLoadedJamming,
    LowerBoundAdversary,
    NoArrivals,
    NoJamming,
    NonAdaptiveKillerAdversary,
    PeriodicJamming,
    PoissonArrivals,
    RandomFractionJamming,
    ReactiveJamming,
    ScheduleAdversary,
    ScheduledArrivals,
    SmoothAdversary,
    UniformRandomArrivals,
)
from ..errors import SpecError
from ..functions import derive_f
from .rates import DEFAULT_G, rate_function_from_spec
from .registry import SpecRegistry

__all__ = [
    "ADVERSARIES",
    "ARRIVAL_STRATEGIES",
    "COMPOSED_KIND",
    "JAMMING_STRATEGIES",
    "AdversarySpec",
    "StrategySpec",
]

COMPOSED_KIND = "composed"

ARRIVAL_STRATEGIES = SpecRegistry("arrival strategy", context=("horizon",))
JAMMING_STRATEGIES = SpecRegistry("jamming strategy", context=("horizon",))
ADVERSARIES = SpecRegistry("adversary", context=("horizon",))


def _optional_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


# --------------------------------------------------------------- arrivals


@ARRIVAL_STRATEGIES.register("no-arrivals")
def _no_arrivals(horizon):
    """no nodes ever arrive"""
    return NoArrivals()


@ARRIVAL_STRATEGIES.register("batch")
def _batch(horizon, count=32, slot=1):
    """inject `count` nodes simultaneously at `slot` (the paper's batch setting)"""
    return BatchArrivals(count=int(count), slot=int(slot))


@ARRIVAL_STRATEGIES.register("poisson")
def _poisson(horizon, rate=0.05, last_slot=None):
    """independent Poisson arrivals with mean `rate` per slot"""
    return PoissonArrivals(rate=float(rate), last_slot=_optional_int(last_slot))


@ARRIVAL_STRATEGIES.register("uniform-random")
def _uniform_random(horizon, total=32, start=1, end=None):
    """scatter `total` arrivals uniformly over [start, end] (end defaults to the horizon)"""
    return UniformRandomArrivals(
        total=int(total),
        window=(int(start), int(end) if end is not None else int(horizon or 1)),
    )


@ARRIVAL_STRATEGIES.register("bursty")
def _bursty(
    horizon, burst_size=16, period=None, jitter=True, first_burst_slot=1, last_slot=None
):
    """a burst of `burst_size` nodes every `period` slots (Ethernet-like)"""
    return BurstyArrivals(
        burst_size=int(burst_size),
        period=(
            int(period) if period is not None else max(2, int(horizon or 16) // 8)
        ),
        jitter=bool(jitter),
        first_burst_slot=int(first_burst_slot),
        last_slot=_optional_int(last_slot),
    )


@ARRIVAL_STRATEGIES.register("scheduled")
def _scheduled(horizon, schedule=()):
    """replay an explicit [[slot, count], ...] arrival schedule"""
    return ScheduledArrivals(
        schedule=[(int(slot), int(count)) for slot, count in schedule]
    )


# ---------------------------------------------------------------- jamming


@JAMMING_STRATEGIES.register("no-jamming")
def _no_jamming(horizon):
    """the benign channel"""
    return NoJamming()


@JAMMING_STRATEGIES.register("random-fraction")
def _random_fraction(horizon, fraction=0.25, last_slot=None):
    """jam each slot independently with probability `fraction` (worst-case regime)"""
    return RandomFractionJamming(
        fraction=float(fraction), last_slot=_optional_int(last_slot)
    )


@JAMMING_STRATEGIES.register("periodic")
def _periodic(horizon, period=4, offset=0):
    """jam every `period`-th slot deterministically"""
    return PeriodicJamming(period=int(period), offset=int(offset))


@JAMMING_STRATEGIES.register("front-loaded")
def _front_loaded(horizon, count=0):
    """jam the first `count` slots (the lower-bound proofs' opening move)"""
    return FrontLoadedJamming(count=int(count))


@JAMMING_STRATEGIES.register("budgeted")
def _budgeted(horizon, g=DEFAULT_G, budget_constant=4.0):
    """random jamming within the paper's budget t/(c*g(t))"""
    return BudgetedJamming(
        g=rate_function_from_spec(g), budget_constant=float(budget_constant)
    )


@JAMMING_STRATEGIES.register("reactive")
def _reactive(horizon, fraction=0.2, burst=8):
    """adaptive: jam a burst after every observed success, fraction-capped"""
    return ReactiveJamming(fraction=float(fraction), burst=int(burst))


# ------------------------------------------------------- whole adversaries


def _require_horizon(horizon: Optional[int], kind: str) -> int:
    if horizon is None:
        raise SpecError(
            f"adversary kind {kind!r} needs the study horizon at build time"
        )
    return int(horizon)


def _f_rate(f: Optional[Mapping[str, Any]], g: Mapping[str, Any]):
    """The explicit ``f`` spec, or the paper's ``f`` derived from ``g``."""
    if f is not None:
        return rate_function_from_spec(f)
    return derive_f(rate_function_from_spec(g))


@ADVERSARIES.register("lower-bound")
def _lower_bound(horizon, g=DEFAULT_G, initial_nodes=1, jam_constant=4.0):
    """Lemma 4.1 / Theorem 1.3 adversary: jammed prefix + random tail jamming"""
    return LowerBoundAdversary(
        horizon=_require_horizon(horizon, "lower-bound"),
        g=rate_function_from_spec(g),
        initial_nodes=int(initial_nodes),
        jam_constant=float(jam_constant),
    )


@ADVERSARIES.register("non-adaptive-killer")
def _non_adaptive_killer(
    horizon, g=DEFAULT_G, f=None, jam_constant=4.0, arrival_constant=4.0
):
    """Theorem 4.2 adversary against pre-defined sending sequences"""
    return NonAdaptiveKillerAdversary(
        horizon=_require_horizon(horizon, "non-adaptive-killer"),
        g=rate_function_from_spec(g),
        f=_f_rate(f, g),
        jam_constant=float(jam_constant),
        arrival_constant=float(arrival_constant),
    )


@ADVERSARIES.register("smooth")
def _smooth(horizon, g=DEFAULT_G, f=None, arrival_constant=8.0, jam_constant=8.0):
    """Corollary 3.6 smooth adversary: evenly spread arrivals and jamming"""
    return SmoothAdversary(
        horizon=_require_horizon(horizon, "smooth"),
        f=_f_rate(f, g),
        g=rate_function_from_spec(g),
        arrival_constant=float(arrival_constant),
        jam_constant=float(jam_constant),
    )


@ADVERSARIES.register("adaptive-success-chaser")
def _adaptive_success_chaser(
    horizon,
    jam_fraction=0.2,
    arrival_budget_per_success=2,
    total_arrival_budget=None,
    jam_burst=4,
    seed_arrivals=1,
):
    """adaptive adversary injecting nodes and jamming after each success"""
    return AdaptiveSuccessChaser(
        jam_fraction=float(jam_fraction),
        arrival_budget_per_success=int(arrival_budget_per_success),
        total_arrival_budget=_optional_int(total_arrival_budget),
        jam_burst=int(jam_burst),
        seed_arrivals=int(seed_arrivals),
    )


@ADVERSARIES.register("schedule")
def _schedule(horizon, arrivals=(), jammed_slots=()):
    """replay explicit arrival and jamming schedules (fully deterministic)"""
    return ScheduleAdversary(
        arrivals=[(int(s), int(c)) for s, c in arrivals],
        jammed_slots=[int(s) for s in jammed_slots],
    )


@dataclass(frozen=True)
class StrategySpec:
    """One composable strategy: registry kind + parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        # params is a dict (unhashable); hash the canonical serialized form.
        from .study import canonical_json

        return hash(canonical_json(self.to_dict()))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StrategySpec":
        if not isinstance(data, Mapping) or "kind" not in data:
            raise SpecError(f"strategy spec must be a mapping with a 'kind': {data!r}")
        return cls(kind=str(data["kind"]), params=data.get("params", {}))


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative adversary: composed strategies or a monolithic proof adversary.

    Exactly one shape is populated: composed specs carry ``arrivals`` and
    ``jamming`` (``kind`` stays ``"composed"``, ``params`` empty); monolithic
    specs carry ``kind``/``params`` and leave the strategy fields ``None``.
    """

    arrivals: Optional[StrategySpec] = None
    jamming: Optional[StrategySpec] = None
    kind: str = COMPOSED_KIND
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind == COMPOSED_KIND:
            arrivals = self.arrivals or StrategySpec("batch")
            jamming = self.jamming or StrategySpec("no-jamming")
            ARRIVAL_STRATEGIES.validate(arrivals.kind, arrivals.params)
            JAMMING_STRATEGIES.validate(jamming.kind, jamming.params)
            object.__setattr__(self, "arrivals", arrivals)
            object.__setattr__(self, "jamming", jamming)
            if self.params:
                raise SpecError("composed adversary specs take no top-level params")
        else:
            if self.arrivals is not None or self.jamming is not None:
                raise SpecError(
                    f"adversary kind {self.kind!r} does not compose arrival/jamming "
                    "strategies"
                )
            ADVERSARIES.validate(self.kind, self.params)
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        # params is a dict (unhashable); hash the canonical serialized form.
        from .study import canonical_json

        return hash(canonical_json(self.to_dict()))

    # ------------------------------------------------------------- building

    def build(self, horizon: Optional[int] = None) -> Adversary:
        """Construct a fresh adversary instance.

        ``horizon`` resolves horizon-dependent defaults (uniform window end,
        burst period) and the proof adversaries' mandatory horizon argument.
        """
        if self.kind == COMPOSED_KIND:
            assert self.arrivals is not None and self.jamming is not None
            adversary = ComposedAdversary(
                ARRIVAL_STRATEGIES.build(
                    self.arrivals.kind, self.arrivals.params, horizon=horizon
                ),
                JAMMING_STRATEGIES.build(
                    self.jamming.kind, self.jamming.params, horizon=horizon
                ),
            )
        else:
            adversary = ADVERSARIES.build(self.kind, self.params, horizon=horizon)
        if self.label:
            adversary.name = self.label
        return adversary

    def factory(self, horizon: Optional[int] = None) -> Callable[[], Adversary]:
        """An adversary factory (fresh instance per trial) for the runner."""

        def _factory() -> Adversary:
            return self.build(horizon)

        _factory.spec = self  # type: ignore[attr-defined]
        return _factory

    @property
    def name(self) -> str:
        """Report-facing name (label, or the composed strategies' names)."""
        if self.label:
            return self.label
        if self.kind == COMPOSED_KIND:
            assert self.arrivals is not None and self.jamming is not None
            return f"{self.arrivals.kind}+{self.jamming.kind}"
        return self.kind

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == COMPOSED_KIND:
            assert self.arrivals is not None and self.jamming is not None
            data["arrivals"] = self.arrivals.to_dict()
            data["jamming"] = self.jamming.to_dict()
        else:
            data["params"] = dict(self.params)
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdversarySpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"adversary spec must be a mapping: {data!r}")
        kind = str(data.get("kind", COMPOSED_KIND))
        label = str(data.get("label", ""))
        if kind == COMPOSED_KIND:
            return cls(
                arrivals=(
                    StrategySpec.from_dict(data["arrivals"])
                    if "arrivals" in data
                    else None
                ),
                jamming=(
                    StrategySpec.from_dict(data["jamming"])
                    if "jamming" in data
                    else None
                ),
                label=label,
            )
        return cls(kind=kind, params=data.get("params", {}), label=label)

    # ------------------------------------------------------------- builders

    @classmethod
    def composed(
        cls,
        arrivals: str,
        jamming: str = "no-jamming",
        arrival_params: Optional[Mapping[str, Any]] = None,
        jamming_params: Optional[Mapping[str, Any]] = None,
        label: str = "",
    ) -> "AdversarySpec":
        """Shorthand for the common composed form."""
        return cls(
            arrivals=StrategySpec(arrivals, dict(arrival_params or {})),
            jamming=StrategySpec(jamming, dict(jamming_params or {})),
            label=label,
        )

    @classmethod
    def batch(
        cls, count: int, jam_fraction: float = 0.0, slot: int = 1, label: str = ""
    ) -> "AdversarySpec":
        """Batch arrivals with optional random jamming (the paper's base workload)."""
        return cls.composed(
            "batch",
            "random-fraction" if jam_fraction > 0 else "no-jamming",
            {"count": count, "slot": slot},
            {"fraction": jam_fraction} if jam_fraction > 0 else {},
            label=label,
        )

    @classmethod
    def spread(
        cls,
        total: int,
        end: int,
        jam_fraction: float = 0.0,
        start: int = 1,
        label: str = "",
    ) -> "AdversarySpec":
        """Uniformly spread arrivals with optional random jamming."""
        return cls.composed(
            "uniform-random",
            "random-fraction" if jam_fraction > 0 else "no-jamming",
            {"total": total, "start": start, "end": end},
            {"fraction": jam_fraction} if jam_fraction > 0 else {},
            label=label,
        )

