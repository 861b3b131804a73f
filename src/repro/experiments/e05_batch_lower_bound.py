"""E5 — Claim 3.5.1: plain 1/i-batch backoff cannot finish n messages in O(n) slots.

Claim 3.5.1 states that ``h_data``-batch — every node broadcasts with
probability ``1/i`` in the ``i``-th slot, the textbook batch form of binary
exponential backoff — takes ``ω(n)`` slots to deliver all ``n`` messages, even
with a simultaneous start and no jamming whatsoever.  (The culprit is the long
tail: once only a few nodes remain their sending probabilities have decayed to
``Θ(1/n)``, so each remaining success takes ``Θ(n)`` slots.)

The experiment runs the batch process for several ``n``, measures the slot at
which the last message is delivered, and reports ``completion / n``: the
ratio must grow with ``n`` (super-linear completion time), and the empirical
growth exponent of the completion slot must exceed 1.  The paper's algorithm
run on the same workload completes in ``O(n)``–``O(n log n)`` slots, showing
the gap the claim is about.
"""

from __future__ import annotations

from typing import List

from ..analysis.fitting import growth_exponent
from ..analysis.tables import Table
from ..functions import constant_g
from ..spec import AdversarySpec, ProtocolSpec, StudySpec
from ._helpers import cjz_protocol_spec, log2, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["BatchLowerBoundExperiment"]


def _completion_slot(result) -> float:
    """Slot of the last delivery; the horizon if some node never finished."""
    slots = [s.success_slot for s in result.node_stats.values() if s.success_slot]
    if result.unfinished_nodes or not slots:
        return float(result.horizon)
    return float(max(slots))


@register
class BatchLowerBoundExperiment(Experiment):
    """Completion time of 1/i-batch grows super-linearly in the batch size."""

    experiment_id = "E5"
    title = "Claim 3.5.1: 1/i-batch needs ω(n) slots to deliver all n messages"
    paper_claim = (
        "h_data-batch (send with probability 1/i in slot i) cannot send all n messages "
        "in O(n) slots w.h.p., even with a simultaneous start and no jamming."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        base_n = config.count(32)
        sizes = [base_n, base_n * 2, base_n * 4, base_n * 8]
        table = Table(
            title="Completion slot of a batch of n nodes (no jamming)",
            columns=["protocol", "n", "completion slot", "completion / n", "completion / (n·log n)"],
        )

        completions_beb: List[float] = []
        completions_cjz: List[float] = []
        protocols = {
            "1/i-batch": ProtocolSpec("probability-backoff", {"scale": 1.0}),
            "cjz": cjz_protocol_spec(constant_g(4.0)),
        }
        specs = [
            StudySpec(
                protocol=protocol,
                adversary=AdversarySpec.batch(n),
                horizon=max(4096, 256 * n),
                trials=config.trials,
                seed=config.seed,
                stop_when_drained=True,
                label=f"{name} n={n}",
                **config.streaming_kwargs,
            )
            for n in sizes
            for name, protocol in protocols.items()
        ]
        studies = iter(run_studies(specs))
        for n in sizes:
            completion = next(studies).mean(_completion_slot)
            completions_beb.append(completion)
            table.add_row("1/i-batch", n, completion, completion / n, completion / (n * log2(n)))

            completion_cjz = next(studies).mean(_completion_slot)
            completions_cjz.append(completion_cjz)
            table.add_row(
                "chen-jiang-zheng", n, completion_cjz, completion_cjz / n,
                completion_cjz / (n * log2(n)),
            )
        result.tables.append(table)

        beb_exponent = growth_exponent(sizes, completions_beb)
        cjz_exponent = growth_exponent(sizes, completions_cjz)
        ratio_growth = (completions_beb[-1] / sizes[-1]) / (completions_beb[0] / sizes[0])
        result.findings["beb_completion_growth_exponent"] = beb_exponent
        result.findings["cjz_completion_growth_exponent"] = cjz_exponent
        result.findings["beb_completion_per_n_growth"] = ratio_growth

        consistent = beb_exponent > 1.05 and ratio_growth > 1.2 and cjz_exponent < beb_exponent
        result.conclusion = (
            f"The 1/i-batch completion slot grows with exponent {beb_exponent:.2f} > 1 and its "
            f"per-node cost completion/n increases by {ratio_growth:.2f}× over the sweep — the "
            "ω(n) behaviour Claim 3.5.1 proves.  The paper's algorithm completes the same batches "
            f"with growth exponent {cjz_exponent:.2f}, i.e. near-linearly, because its control "
            "channel terminates each truncated batch at the right time."
        )
        result.consistent_with_paper = consistent
        return result
