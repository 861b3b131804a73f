"""Declarative, serializable experiment specs and the grid-sweep engine.

The paper's claims are statements over *families* of configurations —
throughput versus jamming fraction, trade-off curves over ``g``, robustness
across arrival patterns.  This package makes a configuration a piece of
*data* instead of a pair of live Python closures:

* :class:`ProtocolSpec` — ``(kind, params)`` naming a registered protocol
  (the paper's algorithm and every baseline in :mod:`repro.protocols`);
* :class:`AdversarySpec` — composable arrivals + jamming strategies, or one
  of the paper's monolithic proof adversaries;
* :class:`StudySpec` — protocol + adversary + horizon/trials/seed/backend/
  workers: everything needed to reproduce a multi-trial study;
* :class:`Sweep` / :class:`StudyPlan` — cartesian grids of StudySpecs and
  their executor;
* :class:`StudyStore` — a content-addressed on-disk cache keyed by
  :meth:`StudySpec.spec_hash`.

Because specs are plain JSON they can be named, diffed, cached, shipped to
workers and swept over grids.  ``StudySpec.from_json(spec.to_json())`` runs
seed-for-seed identical to the equivalent callable-factory invocation of
:func:`repro.sim.run_trials` (which still accepts raw callables as the
escape hatch for unserializable configurations).

Example — the full description of a jammed-batch study::

    {
      "protocol": {"kind": "cjz",
                   "params": {"g": {"kind": "constant", "params": {"value": 4.0}}}},
      "adversary": {"kind": "composed",
                    "arrivals": {"kind": "batch", "params": {"count": 64}},
                    "jamming": {"kind": "random-fraction",
                                "params": {"fraction": 0.25}}},
      "horizon": 8192, "trials": 5, "seed": 2021,
      "backend": "auto", "workers": 1,
      "stop_when_drained": false, "keep_trace": false, "label": "jammed-batch"
    }

Run it with ``StudySpec.from_json(text).run()``, or from the shell::

    python -m repro.cli sweep --spec study.json \\
        --axis adversary.jamming.params.fraction=0.0,0.1,0.25,0.4

Named scenarios (``repro.workloads``) are thin wrappers that produce these
specs; ``repro scenarios`` lists them and ``repro simulate --scenario
ethernet-burst`` runs one.
"""

from .adversary import (
    ADVERSARIES,
    ARRIVAL_STRATEGIES,
    COMPOSED_KIND,
    JAMMING_STRATEGIES,
    AdversarySpec,
    StrategySpec,
)
from .pipeline import METRIC_REDUCERS, PipelineSpec
from .protocol import PROTOCOLS, ProtocolSpec
from .rates import RATE_FUNCTIONS, rate_function_from_spec, rate_function_to_spec
from .registry import SpecRegistry
from .store import CachedResult, StudyStore
from .study import StudySpec, canonical_json
from .sweep import PlanResult, StudyPlan, Sweep, sweep_rows

__all__ = [
    "ADVERSARIES",
    "ARRIVAL_STRATEGIES",
    "COMPOSED_KIND",
    "JAMMING_STRATEGIES",
    "METRIC_REDUCERS",
    "PROTOCOLS",
    "RATE_FUNCTIONS",
    "AdversarySpec",
    "CachedResult",
    "PipelineSpec",
    "PlanResult",
    "ProtocolSpec",
    "SpecRegistry",
    "StrategySpec",
    "StudyPlan",
    "StudySpec",
    "StudyStore",
    "Sweep",
    "canonical_json",
    "rate_function_from_spec",
    "rate_function_to_spec",
    "sweep_rows",
]
