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
from .registry import ParamField, SpecRegistry

__all__ = ["RATE_FUNCTIONS", "rate_function_from_spec", "rate_function_to_spec"]

RATE_FUNCTIONS = SpecRegistry("rate function")

RATE_FUNCTIONS.register(
    "constant",
    lambda p: constant_g(float(p.get("value", 4.0))),
    params=(ParamField("value", "float", 4.0),),
    description="g(x) = value: constant-fraction jamming budget (worst case)",
)
RATE_FUNCTIONS.register(
    "log",
    lambda p: log_g(base=float(p.get("base", 2.0)), floor=float(p.get("floor", 2.0))),
    params=(ParamField("base", "float", 2.0), ParamField("floor", "float", 2.0)),
    description="g(x) = max(floor, log_base x)",
)
RATE_FUNCTIONS.register(
    "polylog",
    lambda p: polylog_g(
        power=float(p.get("power", 2.0)), floor=float(p.get("floor", 2.0))
    ),
    params=(ParamField("power", "float", 2.0), ParamField("floor", "float", 2.0)),
    description="g(x) = max(floor, (log2 x)^power)",
)
RATE_FUNCTIONS.register(
    "exp-sqrt-log",
    lambda p: exp_sqrt_log_g(
        scale=float(p.get("scale", 1.0)), floor=float(p.get("floor", 2.0))
    ),
    params=(ParamField("scale", "float", 1.0), ParamField("floor", "float", 2.0)),
    description="g(x) = max(floor, 2^(scale*sqrt(log2 x))): largest admissible family",
)
RATE_FUNCTIONS.register(
    "derived-f",
    lambda p: derive_f(
        rate_function_from_spec(p["g"]),
        a=float(p.get("a", 1.0)),
        c2=float(p.get("c2", 1.0)),
        floor=float(p.get("floor", 1.0)),
    ),
    params=(
        ParamField("g", "rate", required=True),
        ParamField("a", "float", 1.0),
        ParamField("c2", "float", 1.0),
        ParamField("floor", "float", 1.0),
    ),
    description="the paper's f(x) = a*c2*log(x)/log^2(g(x)/a), derived from a g spec",
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
