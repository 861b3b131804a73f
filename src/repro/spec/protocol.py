"""Declarative protocol specs and the protocol registry.

A :class:`ProtocolSpec` is a ``(kind, params)`` pair naming one entry of
:data:`PROTOCOLS`.  Building it yields the protocol *factory* the simulator
consumes (fresh instance per arriving node); the factory carries the spec on
its ``spec`` attribute so downstream code (result provenance, sweep labels)
can recover it without re-deriving anything.

Every protocol class in :mod:`repro.protocols` / :mod:`repro.core` that can
be described by JSON data registers here and implements
``Protocol.spec_params()``; the only exception is
:class:`~repro.protocols.fixed_probability.FixedProbabilityProtocol`, whose
constructor takes an arbitrary Python callable (use the registered
``log-uniform-fixed`` variant, or the callable escape hatch of
:func:`repro.sim.run_trials`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..core import AlgorithmParameters, cjz_factory
from ..errors import SpecError
from ..protocols import (
    BackonBackoffCD,
    LogUniformFixedProtocol,
    PolynomialBackoff,
    ProbabilityBackoff,
    SawtoothBackoff,
    SlottedAloha,
    TwoChannelNoJamming,
    WindowedBinaryExponentialBackoff,
    make_factory,
)
from ..protocols.base import ProtocolFactory
from .rates import DEFAULT_G, rate_function_from_spec
from .registry import SpecRegistry

__all__ = ["PROTOCOLS", "ProtocolSpec"]

PROTOCOLS = SpecRegistry("protocol")


def _optional_int(value: Any) -> Any:
    return None if value is None else int(value)


def _cjz_parameters(g, a, c2, c3) -> AlgorithmParameters:
    return AlgorithmParameters.from_g(
        rate_function_from_spec(g), a=float(a), c2=float(c2), c3=float(c3)
    )


@PROTOCOLS.register("cjz")
def _cjz(g=DEFAULT_G, a=1.0, c2=1.0, c3=4.0):
    """the paper's three-phase algorithm, parameterized by the jamming budget g"""
    return cjz_factory(_cjz_parameters(g, a, c2, c3))


@PROTOCOLS.register("cjz-global-clock")
def _cjz_global_clock(g=DEFAULT_G, a=1.0, c2=1.0, c3=4.0):
    """global-clock ablation of the paper's algorithm (skips Phase 1)"""
    return cjz_factory(_cjz_parameters(g, a, c2, c3), global_clock=True)


@PROTOCOLS.register("two-channel-no-jamming")
def _two_channel_no_jamming(backoff_sends_per_stage=2.0, c3=4.0):
    """the framework with a constant per-stage budget (no-jamming regime)"""
    return make_factory(
        TwoChannelNoJamming,
        backoff_sends_per_stage=float(backoff_sends_per_stage),
        c3=float(c3),
    )


@PROTOCOLS.register("binary-exponential-backoff")
def _binary_exponential_backoff(initial_window=2, max_window=None):
    """Ethernet-style windowed binary exponential backoff"""
    return make_factory(
        WindowedBinaryExponentialBackoff,
        initial_window=int(initial_window),
        max_window=_optional_int(max_window),
    )


@PROTOCOLS.register("probability-backoff")
def _probability_backoff(scale=1.0):
    """broadcast with probability min(1, scale/i) in the i-th active slot"""
    return make_factory(ProbabilityBackoff, scale=float(scale))


@PROTOCOLS.register("polynomial-backoff")
def _polynomial_backoff(degree=2.0, initial_window=2):
    """windowed backoff with window (failures+1)^degree"""
    return make_factory(
        PolynomialBackoff, degree=float(degree), initial_window=int(initial_window)
    )


@PROTOCOLS.register("sawtooth-backoff")
def _sawtooth_backoff(initial_window=4, max_window=None):
    """repeated doubling runs ramping the sending probability to 1/2"""
    return make_factory(
        SawtoothBackoff,
        initial_window=int(initial_window),
        max_window=_optional_int(max_window),
    )


@PROTOCOLS.register("slotted-aloha")
def _slotted_aloha(probability=0.1):
    """constant sending probability (the naive baseline)"""
    return make_factory(SlottedAloha, probability=float(probability))


@PROTOCOLS.register("log-uniform-fixed")
def _log_uniform_fixed(scale=1.0):
    """non-adaptive slow-decay sequence min(1, scale*log(i+1)/(i+1))"""
    return make_factory(LogUniformFixedProtocol, scale=float(scale))


@PROTOCOLS.register("backon-backoff-cd")
def _backon_backoff_cd(
    initial_probability=0.5,
    backoff_factor=0.5,
    backon_factor=1.2,
    min_probability=1e-6,
    max_probability=1.0,
):
    """multiplicative backon/backoff driven by collision-detection feedback"""
    return make_factory(
        BackonBackoffCD,
        initial_probability=float(initial_probability),
        backoff_factor=float(backoff_factor),
        backon_factor=float(backon_factor),
        min_probability=float(min_probability),
        max_probability=float(max_probability),
    )


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative description of a protocol: registry kind + parameters."""

    kind: str = "cjz"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        PROTOCOLS.validate(self.kind, self.params)
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        # params is a dict (unhashable), so the generated frozen-dataclass
        # hash would raise; hash the canonical serialized form instead.
        from .study import canonical_json

        return hash(canonical_json(self.to_dict()))

    def build(self) -> ProtocolFactory:
        """The protocol factory for this spec (fresh instance per node)."""
        factory = PROTOCOLS.build(self.kind, self.params)
        factory.spec = self  # type: ignore[attr-defined]
        return factory

    @property
    def protocol_name(self) -> str:
        """Report-facing name of the described protocol (builds one instance)."""
        return self.build()().name

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProtocolSpec":
        if not isinstance(data, Mapping) or "kind" not in data:
            raise SpecError(f"protocol spec must be a mapping with a 'kind': {data!r}")
        return cls(kind=str(data["kind"]), params=data.get("params", {}))
