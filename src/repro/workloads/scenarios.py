"""Named scenarios from the application domains the paper's introduction cites.

The introduction motivates contention resolution with congestion control in
Ethernet / 802.11 networks, concurrency control (locking) and shared devices
suffering external interference.  Each scenario below maps one of those
settings onto a horizon and a composed :class:`~repro.spec.AdversarySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..spec.adversary import AdversarySpec

__all__ = ["Scenario", "STANDARD_SCENARIOS", "get_scenario", "scenario_study"]


@dataclass(frozen=True)
class Scenario:
    """A named workload with a short story explaining what it models.

    Scenarios are first-class runnable specs: :attr:`adversary` is the
    serializable adversary description and :meth:`study_spec` the complete
    :class:`~repro.spec.StudySpec` (paper's algorithm by default), ready for
    ``.run()``, JSON export or a sweep.
    """

    key: str
    description: str
    horizon: int
    adversary: AdversarySpec

    def study_spec(
        self,
        protocol: Optional[Any] = None,
        trials: int = 5,
        seed: Optional[int] = 20210219,
        backend: str = "auto",
        workers: int = 1,
        stop_when_drained: bool = False,
    ):
        """A complete runnable StudySpec for this scenario.

        ``protocol`` is a :class:`~repro.spec.ProtocolSpec` (default: the
        paper's algorithm with constant ``g``).
        """
        from ..spec import ProtocolSpec, StudySpec

        return StudySpec(
            protocol=protocol or ProtocolSpec(),
            adversary=self.adversary,
            horizon=self.horizon,
            trials=trials,
            seed=seed,
            backend=backend,
            workers=workers,
            stop_when_drained=stop_when_drained,
            label=self.key,
        )


def _make_standard_scenarios() -> Tuple[Scenario, ...]:
    return (
        Scenario(
            key="ethernet-burst",
            description=(
                "Ethernet-style traffic: periodic bursts of stations waking up "
                "with frames to send on an otherwise clean channel."
            ),
            horizon=8192,
            adversary=AdversarySpec.composed(
                "bursty",
                arrival_params={"burst_size": 24, "period": 1024},
                label="ethernet-burst",
            ),
        ),
        Scenario(
            key="wireless-interference",
            description=(
                "Wireless link with electromagnetic interference: Poisson node "
                "arrivals while a quarter of all slots are unusable."
            ),
            horizon=8192,
            adversary=AdversarySpec.composed(
                "poisson",
                "random-fraction",
                {"rate": 0.02},
                {"fraction": 0.25},
                label="wireless-interference",
            ),
        ),
        Scenario(
            key="lock-convoy",
            description=(
                "Database lock convoy: a large batch of transactions all try to "
                "acquire the same lock at once; the lock manager occasionally "
                "stalls (reactive jamming after each grant)."
            ),
            horizon=8192,
            adversary=AdversarySpec.composed(
                "batch",
                "reactive",
                # Large enough that fixed-probability senders (ALOHA) generate
                # hopeless contention, yet well within the Θ(log t)-per-arrival
                # capacity of the paper's algorithm over this horizon.
                {"count": 192},
                {"fraction": 0.1, "burst": 4},
                label="lock-convoy",
            ),
        ),
        Scenario(
            key="adversarial-jam",
            description=(
                "Worst-case regime of the paper: steady arrivals with a constant "
                "fraction of all slots jammed."
            ),
            horizon=8192,
            adversary=AdversarySpec.composed(
                "uniform-random",
                "random-fraction",
                # The offered load is kept below the algorithm's sustainable
                # throughput of roughly one arrival per Θ(log t) slots so the
                # comparison measures robustness, not overload behaviour.
                {"total": 160},
                {"fraction": 0.25},
                label="adversarial-jam",
            ),
        ),
    )


STANDARD_SCENARIOS: Dict[str, Scenario] = {
    scenario.key: scenario for scenario in _make_standard_scenarios()
}


def get_scenario(key: str) -> Scenario:
    """Look up a standard scenario by key, raising on unknown names."""
    try:
        return STANDARD_SCENARIOS[key]
    except KeyError as exc:
        known = ", ".join(sorted(STANDARD_SCENARIOS))
        raise ConfigurationError(f"unknown scenario {key!r}; known: {known}") from exc


def scenario_study(key: str, **overrides):
    """Shorthand: the named scenario's StudySpec (see :meth:`Scenario.study_spec`)."""
    return get_scenario(key).study_spec(**overrides)
