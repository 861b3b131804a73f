"""Serializable rate-function (``g`` / ``f``) specs.

The paper's algorithm and several adversaries are parameterized by rate
functions (the jamming budget ``g``, the arrival budget ``f``).  The standard
families from :mod:`repro.functions` stamp their construction recipe onto
:attr:`repro.functions.RateFunction.spec`; this module is the codec between
those recipes and live :class:`~repro.functions.RateFunction` objects.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import SpecError
from ..functions import (
    RateFunction,
    constant_g,
    derive_f,
    exp_sqrt_log_g,
    log_g,
    polylog_g,
)
from .registry import SpecRegistry

__all__ = ["RATE_FUNCTIONS", "rate_function_from_spec", "rate_function_to_spec"]

RATE_FUNCTIONS = SpecRegistry("rate function")

#: The default jamming budget ``g`` of every kind that takes one.
DEFAULT_G = {"kind": "constant", "params": {"value": 4.0}}


@RATE_FUNCTIONS.register("constant")
def _constant(value=4.0):
    """g(x) = value: constant-fraction jamming budget (worst case)"""
    return constant_g(float(value))


@RATE_FUNCTIONS.register("log")
def _log(base=2.0, floor=2.0):
    """g(x) = max(floor, log_base x)"""
    return log_g(base=float(base), floor=float(floor))


@RATE_FUNCTIONS.register("polylog")
def _polylog(power=2.0, floor=2.0):
    """g(x) = max(floor, (log2 x)^power)"""
    return polylog_g(power=float(power), floor=float(floor))


@RATE_FUNCTIONS.register("exp-sqrt-log")
def _exp_sqrt_log(scale=1.0, floor=2.0):
    """g(x) = max(floor, 2^(scale*sqrt(log2 x))): largest admissible family"""
    return exp_sqrt_log_g(scale=float(scale), floor=float(floor))


@RATE_FUNCTIONS.register("derived-f")
def _derived_f(g, a=1.0, c2=1.0, floor=1.0):
    """the paper's f(x) = a*c2*log(x)/log^2(g(x)/a), derived from a g spec"""
    return derive_f(
        rate_function_from_spec(g), a=float(a), c2=float(c2), floor=float(floor)
    )


def rate_function_from_spec(spec: Mapping[str, Any]) -> RateFunction:
    """Build a :class:`RateFunction` from a ``{"kind", "params"}`` mapping.

    Any other key is an error: a parameter written beside ``params`` would
    otherwise be dropped silently and the family's default used.
    """
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise SpecError(f"rate-function spec must be a mapping with a 'kind': {spec!r}")
    unknown = sorted(str(key) for key in spec if key not in ("kind", "params"))
    if unknown:
        raise SpecError(
            f"rate-function spec has unknown key(s) {', '.join(unknown)}; "
            f"parameters go under 'params': {spec!r}"
        )
    return RATE_FUNCTIONS.build(str(spec["kind"]), spec.get("params"))


def rate_function_to_spec(rate: RateFunction) -> dict:
    """Extract the serializable recipe of a standard-family rate function."""
    if rate.spec is None:
        raise SpecError(
            f"rate function {rate.name!r} was not built by a standard family "
            "constructor and cannot be serialized"
        )
    return {"kind": rate.spec["kind"], "params": dict(rate.spec.get("params", {}))}
