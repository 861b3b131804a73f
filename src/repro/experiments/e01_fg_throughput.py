"""E1 — the algorithm satisfies the (f, g)-throughput bound (Definition 1.1 / Theorem 1.2).

For a mix of workloads (batch, spread and bursty arrivals; no jamming, random
constant-fraction jamming and reactive jamming) the experiment runs the
paper's algorithm with ``g`` constant, then verifies on every prefix of every
trial that

    active_slots(t)  <=  slack · (n_t · f(t) + d_t · g(t))  +  grace

holds, where ``f`` is the algorithm's own arrival-budget function.  The paper
proves the inequality with an unspecified constant; the experiment reports the
smallest slack-style quantity actually observed (the worst prefix ratio) and
checks it stays below a fixed constant.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.tables import Table
from ..core import AlgorithmParameters
from ..functions import constant_g
from ..metrics import FGThroughputReducer
from ..spec import AdversarySpec, PipelineSpec, StudySpec
from ._helpers import cjz_protocol_spec, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["FGThroughputExperiment"]

#: slack multiplier applied to the theoretical bound; the paper's constant is
#: unspecified, so the reproduction fixes one and requires it to suffice
#: uniformly across workloads (the batch workloads measure ~3× f(t) active
#: slots per arrival, so 8× leaves a real but not vacuous margin).
SLACK = 8.0
#: additive grace absorbing the first few slots where every bound is loose.
GRACE = 128.0


def _workloads(config: ExperimentConfig, horizon: int) -> List[Tuple[str, AdversarySpec]]:
    """The experiment's workload mix as declarative adversary specs."""
    batch_size = config.count(96)
    spread_total = config.count(128)
    burst_size = config.count(24)

    return [
        ("batch / no jamming", AdversarySpec.batch(batch_size)),
        ("batch / 25% random jamming", AdversarySpec.batch(batch_size, jam_fraction=0.25)),
        (
            "spread / 20% random jamming",
            AdversarySpec.spread(spread_total, end=horizon // 2, jam_fraction=0.2),
        ),
        (
            "bursty / reactive jamming",
            AdversarySpec.composed(
                "bursty",
                "reactive",
                {"burst_size": burst_size, "period": max(64, horizon // 8)},
                {"fraction": 0.15, "burst": 6},
            ),
        ),
    ]


@register
class FGThroughputExperiment(Experiment):
    """Verify Definition 1.1 empirically for the paper's algorithm."""

    experiment_id = "E1"
    title = "(f, g)-throughput of the Chen-Jiang-Zheng algorithm"
    paper_claim = (
        "Theorem 1.2: with g constant there is f(x) = Θ(log x) such that the "
        "algorithm keeps active_slots(t) ≤ n_t·f(t) + d_t·g(t) for every prefix, w.h.p."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        horizon = config.horizon(4096)
        g = constant_g(4.0)
        parameters = AlgorithmParameters.from_g(g)
        # The bound check runs as a streaming pipeline reducer: every prefix
        # of every trial is verified columnar during the study itself, so the
        # experiment honors --streaming (columns are released after checking).
        pipeline = PipelineSpec.of(
            FGThroughputReducer(
                parameters.f, g, slack=SLACK, min_prefix=64, additive_grace=GRACE
            )
        )

        table = Table(
            title=f"(f,g)-throughput check, horizon={horizon}, slack={SLACK:g}",
            columns=[
                "workload",
                "trials",
                "satisfied",
                "worst ratio",
                "mean active",
                "mean arrivals",
                "mean jammed",
            ],
        )
        worst_ratio_overall = 0.0
        all_satisfied = True
        specs = [
            StudySpec(
                protocol=cjz_protocol_spec(g),
                adversary=adversary,
                horizon=horizon,
                trials=config.trials,
                seed=config.seed,
                label=label,
                pipeline=pipeline,
                **config.streaming_kwargs,
            )
            for label, adversary in _workloads(config, horizon)
        ]
        for spec, study in zip(specs, run_studies(specs)):
            verdict = study.metrics()["fg-throughput"]
            satisfied = verdict["satisfied"]
            worst = verdict["worst_ratio"]
            worst_ratio_overall = max(worst_ratio_overall, worst)
            if satisfied < verdict["trials"]:
                all_satisfied = False
            table.add_row(
                spec.label,
                study.trials,
                f"{satisfied}/{verdict['trials']}",
                worst,
                study.mean(lambda r: r.total_active_slots),
                study.mean(lambda r: r.total_arrivals),
                study.mean(lambda r: r.total_jammed_slots),
            )
        result.tables.append(table)
        result.findings["worst_prefix_ratio"] = worst_ratio_overall
        result.findings["all_prefixes_satisfied"] = float(all_satisfied)
        result.conclusion = (
            "Across all workloads every prefix of every trial respects the "
            f"(f, g)-throughput bound with slack {SLACK:g} (worst observed ratio "
            f"{worst_ratio_overall:.2f} of the allowed bound), matching Theorem 1.2's "
            "guarantee up to constants."
            if all_satisfied
            else "Some prefixes violated the bound at the chosen slack; see table."
        )
        result.consistent_with_paper = all_satisfied
        return result
