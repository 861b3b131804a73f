"""Pluggable simulation backends (slot kernels and the study kernel).

Per-run slot kernels:

* ``"reference"`` — the per-node, per-slot Python loop; supports every
  configuration and defines the semantics.
* ``"vectorized"`` — batched-RNG numpy resolution for vector-eligible
  protocols against precompilable adversaries; bit-for-bit identical to the
  reference kernel where it applies.

Study-level backends (valid for :class:`~repro.sim.runner.TrialRunner` /
:func:`~repro.sim.runner.run_trials`, not for a single
:class:`~repro.sim.engine.Simulator`):

* ``"batched-study"`` — all trials of a study stacked into one numpy pass
  (:class:`BatchedStudyKernel`); requires a vector-eligible protocol and a
  precompilable adversary; seed-for-seed identical to running the trials
  serially.  It runs only when pinned.
* ``"lockstep-jit"`` — the same trial-lockstep semantics lowered into one
  fused slot loop (:class:`CompiledStudyKernel`), compiled with numba when
  it is installed; runtime stream verification with automatic demotion to
  the numpy lockstep kernel on any mismatch or missing dependency, so
  results are always produced and always identical.
* ``"lockstep"`` — all trials advanced one slot at a time with array
  operations (:class:`LockstepStudyKernel`); serves protocols that expose a
  columnar :class:`~repro.protocols.base.LockstepProgram` (the paper's CJZ
  protocol and its variants, the windowed/sawtooth backoff baselines and
  the vector-eligible protocols) against *any* adversary, adaptive ones
  included; seed-for-seed identical to serial reference.

``"auto"`` escalates down the ladder: the trial runner skips the batched
study kernel, then picks the compiled lockstep kernel (which itself demotes
to the numpy lockstep kernel when it cannot run; ``auto`` skips it
outright when the interpreter is off or the program has no compiled
tables), else the numpy lockstep kernel when the protocol has a program
(the vector-eligible protocols included), else each trial runs the
vectorized kernel when eligible, else the reference kernel.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ...errors import ConfigurationError
from .base import KernelContext, SlotKernel
from .batched import BatchedStudyKernel
from .compiled import CompiledStudyKernel
from .lockstep import LockstepStudyKernel
from .reference import ReferenceKernel, run_slot_loop
from .vectorized import VectorizedKernel

__all__ = [
    "KernelContext",
    "SlotKernel",
    "ReferenceKernel",
    "VectorizedKernel",
    "BatchedStudyKernel",
    "CompiledStudyKernel",
    "LockstepStudyKernel",
    "run_slot_loop",
    "AUTO_BACKEND",
    "STUDY_BACKEND",
    "COMPILED_BACKEND",
    "LOCKSTEP_BACKEND",
    "STUDY_BACKENDS",
    "available_backends",
    "available_study_backends",
    "resolve_kernel",
    "select_kernel",
]

AUTO_BACKEND = "auto"
STUDY_BACKEND = BatchedStudyKernel.name
COMPILED_BACKEND = CompiledStudyKernel.name
LOCKSTEP_BACKEND = LockstepStudyKernel.name

#: Backends that execute whole trial studies (rejected by a single Simulator).
STUDY_BACKENDS = (STUDY_BACKEND, COMPILED_BACKEND, LOCKSTEP_BACKEND)

_KERNELS: Dict[str, Type[SlotKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    VectorizedKernel.name: VectorizedKernel,
}


def available_backends() -> Tuple[str, ...]:
    """Valid single-run ``backend=`` values, including ``"auto"``."""
    return (AUTO_BACKEND, *sorted(_KERNELS))


def available_study_backends() -> Tuple[str, ...]:
    """Valid study-level ``backend=`` values (trial runner / experiments)."""
    return (AUTO_BACKEND, *sorted(STUDY_BACKENDS), *sorted(_KERNELS))


def resolve_kernel(name: str) -> SlotKernel:
    """Instantiate the slot kernel registered under ``name`` (not ``"auto"``)."""
    try:
        return _KERNELS[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from exc


def select_kernel(backend: str, context: KernelContext) -> SlotKernel:
    """Resolve ``backend`` against a concrete run configuration.

    ``"auto"`` prefers the vectorized kernel when it supports the context and
    silently falls back to the reference kernel otherwise.  Naming a kernel
    explicitly raises :class:`~repro.errors.ConfigurationError` when it cannot
    run the configuration.
    """
    if backend == AUTO_BACKEND:
        vectorized = VectorizedKernel()
        if vectorized.unsupported_reason(context) is None:
            return vectorized
        return ReferenceKernel()
    kernel = resolve_kernel(backend)
    reason = kernel.unsupported_reason(context)
    if reason is not None:
        raise ConfigurationError(f"backend {backend!r} unavailable: {reason}")
    return kernel
