"""Parameterization of the Chen–Jiang–Zheng protocol.

The protocol takes the jamming budget function ``g`` as input (``log g(x) =
O(sqrt(log x))``) and derives everything else from it:

* the arrival budget ``f(x) = a·c2·log x / log²(g(x)/a)`` (Theorem 1.2);
* the ``backoff`` subroutine's per-stage send budget ``⌈f(stage length)/a⌉``
  (the paper's ``(f/a)``-backoff);
* the control-channel batch rate ``h_ctrl(x) = c3·log x / x``;
* the data-channel batch rate ``h_data(x) = 1/x``.

The constants ``a``, ``c2`` and ``c3`` are "sufficiently large" in the paper;
the defaults here are moderate values chosen so the asymptotic behaviour is
already visible at simulable scales (10³–10⁶ slots).  All of them can be
overridden, and the ablation benchmark sweeps ``c3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..functions import RateFunction, constant_g, derive_f, h_ctrl, h_data

__all__ = ["AlgorithmParameters"]


@dataclass(frozen=True)
class AlgorithmParameters:
    """Immutable bundle of the protocol's functions and constants."""

    g: RateFunction
    f: RateFunction
    a: float = 1.0
    c2: float = 1.0
    c3: float = 4.0
    ctrl_rate: RateFunction = field(default_factory=lambda: h_ctrl(4.0))
    data_rate: RateFunction = field(default_factory=h_data)

    def __post_init__(self) -> None:
        if self.a <= 0 or self.c2 <= 0 or self.c3 <= 0:
            raise ConfigurationError("constants a, c2, c3 must be positive")

    @classmethod
    def from_g(
        cls,
        g: Optional[RateFunction] = None,
        a: float = 1.0,
        c2: float = 1.0,
        c3: float = 4.0,
    ) -> "AlgorithmParameters":
        """Standard construction: derive ``f`` from the jamming budget ``g``.

        With no arguments this targets the worst case the paper highlights:
        ``g`` constant (constant-fraction jamming), for which the best
        achievable ``f`` is Θ(log t).
        """
        g = g or constant_g(4.0)
        f = derive_f(g, a=a, c2=c2)
        return cls(g=g, f=f, a=a, c2=c2, c3=c3, ctrl_rate=h_ctrl(c3), data_rate=h_data())

    @classmethod
    def from_f(
        cls,
        f: RateFunction,
        g: Optional[RateFunction] = None,
        a: float = 1.0,
        c3: float = 4.0,
    ) -> "AlgorithmParameters":
        """Construct with an explicitly chosen ``f`` (used by ablation variants)."""
        g = g or constant_g(4.0)
        return cls(g=g, f=f, a=a, c2=1.0, c3=c3, ctrl_rate=h_ctrl(c3), data_rate=h_data())

    def backoff_budget(self, stage_length: int) -> int:
        """Number of send attempts per ``backoff`` stage of the given length.

        This realizes the ``(f/a)``-backoff of the algorithm description: a
        stage of length ``L`` gets ``⌈f(L)/a⌉`` uniformly random send slots.
        """
        if stage_length < 1:
            raise ConfigurationError("stage length must be >= 1")
        budget = math.ceil(self.f(float(max(stage_length, 2))) / self.a)
        return max(1, min(budget, stage_length))

    def ctrl_probability(self, local_index: int) -> float:
        """Control-channel batch sending probability at the given local slot index."""
        if local_index < 1:
            raise ConfigurationError("local index must be >= 1")
        return min(1.0, self.ctrl_rate(float(local_index)))

    def data_probability(self, local_index: int) -> float:
        """Data-channel batch sending probability at the given local slot index."""
        if local_index < 1:
            raise ConfigurationError("local index must be >= 1")
        return min(1.0, self.data_rate(float(local_index)))

    def describe(self) -> str:
        return (
            f"AlgorithmParameters(g={self.g.name}, f={self.f.name}, "
            f"a={self.a:g}, c2={self.c2:g}, c3={self.c3:g})"
        )

    # ------------------------------------------------------------ spec layer

    def to_spec_params(self) -> dict:
        """Serializable recipe, defined for :meth:`from_g`-style instances.

        The declarative protocol spec stores ``g`` plus the constants and
        rebuilds everything else through :meth:`from_g`; instances whose ``f``
        was chosen independently (``from_f`` ablations, hand-assembled
        bundles) have no faithful recipe and raise ``SpecError``.
        """
        # Imported lazily: repro.spec imports this module at package-init time.
        from ..errors import SpecError
        from ..spec.rates import rate_function_to_spec

        g_spec = rate_function_to_spec(self.g)
        expected_f = {
            "kind": "derived-f",
            "params": {"g": g_spec, "a": self.a, "c2": self.c2, "floor": 1.0},
        }
        if self.f.spec != expected_f:
            raise SpecError(
                f"{self.describe()} was not built via AlgorithmParameters.from_g "
                "and cannot be serialized (its f is not the one derived from g)"
            )
        return {"g": g_spec, "a": self.a, "c2": self.c2, "c3": self.c3}
