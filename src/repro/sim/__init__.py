"""Slot-synchronous discrete-event simulator for the multiple-access channel."""

from .backends import (
    BatchedStudyKernel,
    KernelContext,
    ReferenceKernel,
    SlotKernel,
    VectorizedKernel,
    available_backends,
    available_study_backends,
)
from .engine import Simulator, SimulatorConfig
from .health import HealthEvent, RunHealth
from .node import Node
from .results import PrefixColumn, PrefixCounters, SimulationResult
from .runner import TrialRunner, TrialStudy, run_trials

__all__ = [
    "Simulator",
    "SimulatorConfig",
    "Node",
    "PrefixColumn",
    "PrefixCounters",
    "SimulationResult",
    "HealthEvent",
    "RunHealth",
    "TrialRunner",
    "TrialStudy",
    "run_trials",
    "SlotKernel",
    "KernelContext",
    "ReferenceKernel",
    "VectorizedKernel",
    "BatchedStudyKernel",
    "available_backends",
    "available_study_backends",
]
