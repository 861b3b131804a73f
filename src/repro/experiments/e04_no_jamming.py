"""E4 — without jamming the algorithm achieves constant throughput.

With no jamming the paper's guarantee specializes (Remark 2 / Bender et al.
STOC '20): the number of active slots is at most a constant multiple of the
number of arrivals, i.e. classical throughput ``n_t / a_t`` is bounded below
by a constant, independent of the instance size.  The experiment sweeps the
batch size (and also checks a dynamic Poisson workload) and verifies the
active-slots-per-arrival ratio stays bounded as ``n`` grows, both for the
paper's algorithm and for the jamming-oblivious two-channel variant; plain
binary exponential backoff is included to show it does *not* keep the ratio
bounded (its completion time is super-linear in ``n``).
"""

from __future__ import annotations

from ..analysis.fitting import growth_exponent
from ..analysis.tables import Table
from ..functions import constant_g, exp_sqrt_log_g
from ..spec import AdversarySpec, ProtocolSpec, StudySpec
from ._helpers import cjz_protocol_spec, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["NoJammingConstantThroughputExperiment"]


@register
class NoJammingConstantThroughputExperiment(Experiment):
    """Active slots per arrival stays bounded without jamming."""

    experiment_id = "E4"
    title = "Constant throughput without jamming (Bender et al. regime)"
    paper_claim = (
        "Without jamming, constant throughput is achievable without collision "
        "detection: active slots are at most a constant multiple of arrivals."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        base_n = config.count(48)
        batch_sizes = [base_n, base_n * 2, base_n * 4]
        # Use the large-g parameterization (constant f) — the natural choice
        # when no jamming is expected — alongside the worst-case one.
        contenders = {
            "cjz (g const)": cjz_protocol_spec(constant_g(4.0)),
            "cjz (g = 2^√log)": cjz_protocol_spec(exp_sqrt_log_g()),
            "two-channel (no-jam tuned)": ProtocolSpec("two-channel-no-jamming"),
            "binary exponential backoff": ProtocolSpec("binary-exponential-backoff"),
        }
        horizon = config.horizon(8192)
        rates = (0.01, 0.03)
        specs = [
            StudySpec(
                protocol=protocol,
                adversary=AdversarySpec.batch(n),
                horizon=max(64 * n, 2048),
                trials=config.trials,
                seed=config.seed,
                stop_when_drained=True,
                label=f"{name}@{n}",
                **config.execution_kwargs,
            )
            for name, protocol in contenders.items()
            for n in batch_sizes
        ] + [
            StudySpec(
                protocol=contenders["cjz (g const)"],
                adversary=AdversarySpec.composed(
                    "poisson",
                    arrival_params={"rate": rate, "last_slot": horizon // 2},
                ),
                horizon=horizon,
                trials=config.trials,
                seed=config.seed + 7,
                label=f"poisson {rate:g}",
                **config.execution_kwargs,
            )
            for rate in rates
        ]
        studies = iter(run_studies(specs))

        table = Table(
            title="Active slots per arrival, batch workload, no jamming",
            columns=["protocol", "n", "active slots", "active/arrival", "unfinished"],
        )
        overhead_series = {name: [] for name in contenders}
        for name in contenders:
            for n in batch_sizes:
                study = next(studies)
                active = study.mean(lambda r: r.total_active_slots)
                per_arrival = active / n
                overhead_series[name].append(per_arrival)
                table.add_row(
                    name,
                    n,
                    active,
                    per_arrival,
                    study.mean(lambda r: r.unfinished_nodes),
                )
        result.tables.append(table)

        # Dynamic workload check for the paper's algorithm only.
        dynamic_table = Table(
            title="Dynamic Poisson arrivals, no jamming (paper's algorithm)",
            columns=["rate", "horizon", "arrivals", "active/arrival", "unfinished"],
        )
        for rate, study in zip(rates, studies):
            arrivals = study.mean(lambda r: r.total_arrivals)
            dynamic_table.add_row(
                rate,
                horizon,
                arrivals,
                study.mean(lambda r: r.total_active_slots) / max(arrivals, 1.0),
                study.mean(lambda r: r.unfinished_nodes),
            )
        result.tables.append(dynamic_table)

        cjz_growth = growth_exponent(batch_sizes, overhead_series["cjz (g = 2^√log)"])
        beb_growth = growth_exponent(
            batch_sizes, overhead_series["binary exponential backoff"]
        )
        result.findings["cjz_overhead_growth_exponent"] = cjz_growth
        result.findings["beb_overhead_growth_exponent"] = beb_growth
        result.findings["cjz_max_overhead"] = max(overhead_series["cjz (g = 2^√log)"])

        consistent = cjz_growth < 0.35 and beb_growth > cjz_growth
        result.conclusion = (
            "The paper's algorithm keeps active slots per arrival essentially flat as the "
            f"batch grows (growth exponent {cjz_growth:.2f}), i.e. constant throughput, "
            "recovering the Bender et al. STOC'20 result; binary exponential backoff's "
            f"overhead grows markedly faster (exponent {beb_growth:.2f}), consistent with "
            "its known lack of constant throughput."
        )
        result.consistent_with_paper = consistent
        return result
