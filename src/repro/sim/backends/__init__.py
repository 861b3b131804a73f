"""Pluggable simulation backends (slot kernels and the study kernels).

Per-trial slot kernels (each runs one trial; a single
:class:`~repro.sim.engine.Simulator` runs nothing else):

* ``"reference"`` — the per-node, per-slot Python loop; supports every
  configuration and defines the semantics.
* ``"vectorized"`` — batched-RNG numpy resolution for vector-eligible
  protocols against precompilable adversaries; bit-for-bit identical to the
  reference kernel where it applies.  It runs only when pinned.

Study kernels (each runs a whole study, or a worker's shard of it, for
:class:`~repro.sim.runner.TrialRunner` / :func:`~repro.sim.runner.run_trials`):

* ``"lockstep-jit"`` — the trial-lockstep semantics lowered into one fused
  slot loop (:class:`CompiledStudyKernel`), compiled with numba when it is
  installed; runtime stream verification with automatic demotion to the
  numpy lockstep kernel on any mismatch or missing dependency, so results
  are always produced and always identical.
* ``"lockstep"`` — all trials advanced one slot at a time with array
  operations (:class:`LockstepStudyKernel`); serves protocols that expose a
  columnar :class:`~repro.protocols.base.LockstepProgram` (the paper's CJZ
  protocol and its variants, the windowed/sawtooth backoff baselines and
  the vector-eligible protocols) against *any* adversary, adaptive ones
  included; seed-for-seed identical to serial reference.
* ``"batched-study"`` — all trials of a study stacked into one numpy pass
  (:class:`BatchedStudyKernel`); requires a vector-eligible protocol and a
  precompilable adversary.  It runs only when pinned.

:data:`LADDERS` is the one table of what each ``backend=`` name runs.
``"auto"`` walks ``lockstep-jit`` (skipped outright when the interpreter is
off or the program has no compiled tables), then ``lockstep``, then runs
each trial on ``reference``; a study kernel's own name walks that kernel,
then per-trial ``reference``; a slot kernel's name runs that kernel.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    "COMPILED_BACKEND",
    "LADDERS",
    "available_study_backends",
]

AUTO_BACKEND = "auto"
COMPILED_BACKEND = CompiledStudyKernel.name

#: What each ``backend=`` name runs: the kernel classes it walks, in order.
#: Every rung but the last is a study kernel, tried on the whole study; the
#: last is the per-trial slot kernel, which runs every trial when no study
#: kernel took the study, and is all a single Simulator runs.
LADDERS: Dict[str, Tuple[type, ...]] = {
    AUTO_BACKEND: (CompiledStudyKernel, LockstepStudyKernel, ReferenceKernel),
    BatchedStudyKernel.name: (BatchedStudyKernel, ReferenceKernel),
    LockstepStudyKernel.name: (LockstepStudyKernel, ReferenceKernel),
    CompiledStudyKernel.name: (CompiledStudyKernel, ReferenceKernel),
    ReferenceKernel.name: (ReferenceKernel,),
    VectorizedKernel.name: (VectorizedKernel,),
}


def available_study_backends() -> Tuple[str, ...]:
    """Valid ``backend=`` values: the names :data:`LADDERS` maps."""
    return tuple(LADDERS)
