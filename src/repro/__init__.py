"""Reproduction of *Tight Trade-off in Contention Resolution without Collision Detection*.

Chen, Jiang and Zheng (PODC 2021) characterize the exact trade-off between
throughput and jamming-resistance for contention resolution on a
multiple-access channel without collision detection.  This package contains a
full reproduction stack:

* a slot-synchronous simulator of the multiple-access channel (``repro.sim``,
  ``repro.channel``);
* an adaptive adversary framework with the arrival and jamming strategies used
  in the paper's proofs (``repro.adversary``);
* the paper's three-phase algorithm (``repro.core``) and the classical
  baselines it is compared against (``repro.protocols``);
* throughput/latency/energy metrics including a checker for the paper's
  (f, g)-throughput definition (``repro.metrics``);
* the experiments that reproduce every theorem-level claim of the paper
  (``repro.experiments``) and the analysis utilities they use
  (``repro.analysis``).

Quickstart
----------

>>> from repro import quick_run
>>> result = quick_run(arrivals=64, horizon=4096, jam_fraction=0.25, seed=7)
>>> result.total_successes > 0
True
"""

from __future__ import annotations

from typing import Optional

from . import faults
from .channel import MultipleAccessChannel, NoCollisionDetection, WithCollisionDetection
from .core import AlgorithmParameters, ChenJiangZhengProtocol, cjz_factory
from .errors import ConfigurationError, FaultInjected, ReproError
from .faults import FaultPlan, FaultRule
from .functions import (
    GFamily,
    RateFunction,
    STANDARD_G_FAMILIES,
    constant_g,
    derive_f,
    exp_sqrt_log_g,
    log_g,
    polylog_g,
)
from .metrics import (
    MetricPipeline,
    check_fg_throughput,
    summarize_energy,
    summarize_latencies,
)
from .sim import (
    PrefixCounters,
    RunHealth,
    SimulationResult,
    Simulator,
    SimulatorConfig,
    run_trials,
)
from .spec import (
    AdversarySpec,
    PipelineSpec,
    ProtocolSpec,
    StudyPlan,
    StudySpec,
    StudyStore,
    Sweep,
)
from .version import __version__

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "faults",
    "RunHealth",
    "AdversarySpec",
    "ProtocolSpec",
    "StudySpec",
    "StudyPlan",
    "StudyStore",
    "Sweep",
    "MultipleAccessChannel",
    "NoCollisionDetection",
    "WithCollisionDetection",
    "AlgorithmParameters",
    "ChenJiangZhengProtocol",
    "cjz_factory",
    "RateFunction",
    "GFamily",
    "STANDARD_G_FAMILIES",
    "constant_g",
    "log_g",
    "polylog_g",
    "exp_sqrt_log_g",
    "derive_f",
    "check_fg_throughput",
    "summarize_latencies",
    "summarize_energy",
    "MetricPipeline",
    "PipelineSpec",
    "PrefixCounters",
    "Simulator",
    "SimulatorConfig",
    "SimulationResult",
    "run_trials",
    "quick_run",
]


def quick_run(
    arrivals: int = 64,
    horizon: Optional[int] = None,
    jam_fraction: float = 0.0,
    seed: Optional[int] = None,
    keep_trace: bool = False,
    backend: str = "auto",
    scenario: Optional[str] = None,
    adversary_spec=None,
    protocol_spec=None,
) -> SimulationResult:
    """Run the paper's algorithm once on a simple workload and return the result.

    By default ``arrivals`` nodes are injected as a batch in slot 1 and every
    slot is independently jammed with probability ``jam_fraction``.  This is
    the one-call entry point used by the README quickstart.

    The workload can instead come from the declarative spec layer:

    * ``scenario`` — a named scenario key (``"ethernet-burst"``, ...); its
      workload and horizon are used (``horizon`` still overrides).
    * ``adversary_spec`` — a :class:`repro.spec.AdversarySpec`.
    * ``protocol_spec`` — a :class:`repro.spec.ProtocolSpec` to run instead
      of the paper's algorithm with default parameters.

    ``arrivals``/``jam_fraction`` are ignored when a scenario or adversary
    spec supplies the workload.
    """
    from .spec import AdversarySpec

    if scenario is not None:
        if adversary_spec is not None:
            raise ConfigurationError(
                "pass either scenario or adversary_spec, not both"
            )
        from .workloads import get_scenario

        named = get_scenario(scenario)
        adversary_spec = named.adversary
        horizon = horizon or named.horizon
    horizon = horizon or 4096
    if adversary_spec is None:
        adversary_spec = AdversarySpec.batch(arrivals, jam_fraction=jam_fraction)
    protocol_factory = protocol_spec.build() if protocol_spec is not None else cjz_factory()

    simulator = Simulator(
        protocol_factory=protocol_factory,
        adversary=adversary_spec.build(horizon),
        config=SimulatorConfig(horizon=horizon, keep_trace=keep_trace),
        seed=seed,
        backend=backend,
    )
    return simulator.run()
