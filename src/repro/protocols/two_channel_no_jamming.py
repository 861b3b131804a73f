"""A two-virtual-channel algorithm in the spirit of Bender et al. (STOC '20).

Bender, Kopelowitz, Kuszmaul and Pettie showed constant throughput is possible
without collision detection *when there is no jamming*.  Their algorithm (like
the paper's) synchronizes nodes through successes on a control channel and
then runs batched backoff on a data channel.  This module implements a
simplified version of that framework: it is structurally the paper's algorithm
with the jamming-oblivious choice ``f ≡ O(1)`` — i.e. the ``backoff``
subroutine sends a constant number of times per stage instead of
``Θ(log t / log² g)`` times.

It serves two purposes in the reproduction:

* experiment E4 checks it (and the paper's algorithm) achieve constant
  throughput without jamming;
* experiments E1/E3 show that, unlike the paper's algorithm, it degrades
  beyond the optimal trade-off once jamming appears, motivating the
  jamming-aware choice of ``f``.
"""

from __future__ import annotations

from typing import Optional

from ..core.parameters import AlgorithmParameters
from ..core.protocol import CJZLockstepProgram, ChenJiangZhengProtocol
from ..functions import RateFunction
from .base import LockstepProgram

__all__ = ["TwoChannelNoJamming"]


def _constant_f(value: float = 2.0) -> RateFunction:
    return RateFunction(f"f(x)={value:g}", lambda x: value)


class TwoChannelNoJamming(ChenJiangZhengProtocol):
    """The paper's framework instantiated with a constant per-stage send budget.

    Structurally identical to :class:`~repro.core.protocol.ChenJiangZhengProtocol`
    but with ``f`` fixed to a small constant, which is the right choice when no
    jamming is expected (Bender et al.'s regime) and a provably sub-optimal
    choice once a constant fraction of slots can be jammed.
    """

    name = "two-channel-no-jamming"
    spec_kind = "two-channel-no-jamming"

    def __init__(self, backoff_sends_per_stage: float = 2.0, c3: float = 4.0) -> None:
        parameters = AlgorithmParameters.from_f(
            f=_constant_f(backoff_sends_per_stage), c3=c3
        )
        super().__init__(parameters)
        self.name = "two-channel-no-jamming"
        self._backoff_sends_per_stage = backoff_sends_per_stage
        self._c3 = c3

    def spec_params(self) -> dict:
        # The inherited implementation serializes AlgorithmParameters via
        # from_g, which does not describe this from_f-based variant; its own
        # constructor arguments are the faithful recipe.
        return {
            "backoff_sends_per_stage": self._backoff_sends_per_stage,
            "c3": self._c3,
        }

    def lockstep_program(self) -> Optional[LockstepProgram]:
        # Only the parameters differ from the paper's algorithm (no hook is
        # overridden), so the CJZ program replays this class exactly.
        if type(self) is not TwoChannelNoJamming:
            return None
        return CJZLockstepProgram(self._params)
