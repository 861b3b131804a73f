"""Shared helpers for the experiment modules.

Experiments describe their workloads declaratively: every study is a
:class:`~repro.spec.StudySpec` (protocol and adversary specs plus horizon,
trials and seed), so every experiment configuration is serializable,
hashable and sweepable, and each experiment runs all of its studies as one
:class:`~repro.spec.StudyPlan`, whose fusion packs compatible studies into
shared lockstep runs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..functions import RateFunction
from ..sim import TrialStudy
from ..spec import ProtocolSpec, StudyPlan, StudySpec, rate_function_to_spec

__all__ = ["cjz_protocol_spec", "log2", "run_studies"]


def log2(x: float) -> float:
    return math.log2(max(x, 2.0))


def cjz_protocol_spec(
    g: Optional[RateFunction] = None, c3: Optional[float] = None
) -> ProtocolSpec:
    """ProtocolSpec for the paper's algorithm parameterized by ``g`` (and ``c3``)."""
    params = {}
    if g is not None:
        params["g"] = rate_function_to_spec(g)
    if c3 is not None:
        params["c3"] = c3
    return ProtocolSpec(kind="cjz", params=params)


def run_studies(specs: Sequence[StudySpec]) -> List[TrialStudy]:
    """Run an experiment's studies as one plan; the studies in spec order."""
    return [result.study for result in StudyPlan(specs).run()]
