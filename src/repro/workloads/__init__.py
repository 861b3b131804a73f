"""Named workload scenarios motivated by the paper's introduction.

Each scenario is a horizon plus an :class:`~repro.spec.AdversarySpec`, and
:func:`scenario_study` / :meth:`Scenario.study_spec` turn it into a complete
runnable :class:`~repro.spec.StudySpec`.
"""

from .scenarios import Scenario, STANDARD_SCENARIOS, get_scenario, scenario_study

__all__ = [
    "Scenario",
    "STANDARD_SCENARIOS",
    "get_scenario",
    "scenario_study",
]
