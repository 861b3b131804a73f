"""Experiment configuration: trial counts, scale presets and seeds."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.backends import available_study_backends

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Controls how much work each experiment does.

    ``scale`` selects a preset:

    * ``"smoke"`` — minimal sizes; used by the test suite to exercise the
      experiment code paths in seconds.
    * ``"quick"`` — small sizes; used by the pytest-benchmark harness.
    * ``"full"``  — the sizes recorded in EXPERIMENTS.md (minutes).

    Experiments read :attr:`scale_factor` and the helpers below rather than
    interpreting the preset name directly, so custom scales remain possible.

    ``backend`` selects the simulation backend (``auto`` / ``batched-study``
    / ``lockstep`` / ``reference`` / ``vectorized``) and ``workers`` the
    number of trial worker processes; both are set on every
    :class:`~repro.spec.StudySpec` an experiment runs.  ``auto`` runs each
    whole study through the lockstep kernel when the protocol has a
    columnar program (the paper's own algorithm, the baselines' age-profile
    senders, adaptive adversaries included), else the per-trial ladder;
    an experiment's plan fuses the studies that share a lockstep program.
    ``batched-study`` runs only when pinned.

    ``streaming`` asks pipeline-based experiments to release per-slot
    prefix columns once their reducers have consumed each trial (memory
    O(1) in the horizon).  Experiments whose analysis needs full prefixes
    after the run ignore the request and keep the columns.
    """

    trials: int = 5
    seed: int = 20210219  # arXiv submission date of the paper
    scale: str = "quick"
    backend: str = "auto"
    workers: int = 1
    streaming: bool = False

    _FACTORS = {"smoke": 0.25, "quick": 1.0, "full": 4.0}

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.scale not in self._FACTORS:
            raise ConfigurationError(
                f"scale must be one of {sorted(self._FACTORS)}, got {self.scale!r}"
            )
        if self.backend not in available_study_backends():
            raise ConfigurationError(
                f"backend must be one of {available_study_backends()}, "
                f"got {self.backend!r}"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    @property
    def scale_factor(self) -> float:
        return self._FACTORS[self.scale]

    def horizon(self, base: int, minimum: int = 256) -> int:
        """Scale a base horizon by the preset factor (power-of-two friendly)."""
        return max(minimum, int(base * self.scale_factor))

    def count(self, base: int, minimum: int = 8) -> int:
        """Scale a node count by the preset factor."""
        return max(minimum, int(base * self.scale_factor))

    def with_scale(self, scale: str) -> "ExperimentConfig":
        # dataclasses.replace copies every field, so new config fields can
        # never be silently dropped here.
        return dataclasses.replace(self, scale=scale)

    @property
    def execution_kwargs(self) -> dict:
        """:class:`~repro.spec.StudySpec` fields every experiment study takes."""
        return {"backend": self.backend, "workers": self.workers}

    @property
    def streaming_kwargs(self) -> dict:
        """Execution kwargs plus the streaming request.

        Only experiments whose metrics run through a
        :class:`~repro.metrics.MetricPipeline` (reduced before columns are
        released) should forward these; prefix-consuming experiments use
        :attr:`execution_kwargs`.
        """
        return {**self.execution_kwargs, "streaming": self.streaming}
