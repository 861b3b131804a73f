"""Shared machinery of the study-level kernels (batched-study and lockstep).

Both study kernels execute all trials of a (protocol, adversary, config)
triple in one pass and must reproduce the serial per-trial reference path
seed for seed.  The pieces they share live here:

* :class:`SeedPlan` — read-only arithmetic derivation of every stream the
  serial path would spawn (the adversary generator and each node's
  generator, per trial), without advancing any ``SeedSequence``;
* :func:`compile_adversary_schedules` — per-trial adversary setup +
  whole-horizon precompilation with the pooled bulk-seeding fast path;
* :func:`emit_study_results` — the per-trial
  :class:`~repro.sim.results.SimulationResult` assembly from node columns
  and per-trial summary vectors (node columns are views of the study's
  rows; counters are views of given planes or derived on first read);
* :func:`study_early_stops` / :func:`iter_blocks` — early-stop resolution
  and block splitting helpers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...adversary.base import Adversary, ComposedAdversary
from ...errors import ConfigurationError
from ...rng import (
    ReusableGenerator,
    SeedTree,
    TrialSeedBatch,
    assemble_seed_words,
    bulk_bounded_pairs63,
    bulk_seed_states,
    fast_bounded_pairs_ok,
    fast_seed_path_ok,
    pcg64_state_dict,
    seed_states_for_entropies,
)
from ...types import SimulationSummary
from ..results import NodeColumns, PrefixCounters, SimulationResult

__all__ = [
    "SeedPlan",
    "StudyProbe",
    "compile_adversary_schedules",
    "emit_study_results",
    "iter_blocks",
    "study_early_stops",
    "MAX_BLOCK_ELEMENTS",
]

#: Element cap (rows × columns) for one processing block of the batched
#: study kernel.  Studies larger than this are split into trial blocks; a
#: single trial above the cap makes the study ineligible (the per-trial path
#: has its own replay fallback).
MAX_BLOCK_ELEMENTS = 1 << 24

#: Element cap (rows × slots) of one block of native draws in the lockstep
#: age-profile program (:class:`~repro.protocols.base.
#: AgeProfileLockstepProgram`): 4 MB of doubles, live only while a batch of
#: arriving or refilling rows turns its draws into send slots.
DRAW_BLOCK_ELEMENTS = 1 << 19


class StudyProbe:
    """Memoized eligibility probe shared by every rung of the study ladder.

    Each study kernel's ``unsupported_reason`` needs a throwaway protocol
    instance (and its lockstep program / compiled tables) plus a throwaway
    adversary instance to answer eligibility questions.  Constructing those
    per rung repeats the same factory calls three times per dispatch; the
    runner builds one probe per ``run_trials`` dispatch instead and passes
    it down.  Probe instances are never handed a generator and never run,
    so sharing them across rungs cannot perturb any stream.
    """

    def __init__(self, protocol_factory, adversary_factory) -> None:
        self._protocol_factory = protocol_factory
        self._adversary_factory = adversary_factory
        self._protocol = None
        self._program = None
        self._program_known = False
        self._program_taken = False
        self._adversary = None

    @property
    def protocol(self):
        """A memoized probe protocol instance (never given a generator)."""
        if self._protocol is None:
            self._protocol = self._protocol_factory()
        return self._protocol

    @property
    def program(self):
        """The probe protocol's lockstep program (memoized; may be ``None``)."""
        if not self._program_known:
            self._program = self.protocol.lockstep_program()
            self._program_known = True
        return self._program

    def take_program(self):
        """A never-bound lockstep program for an execution block.

        The first call hands out the probe's own (still unbound) program so
        single-block studies construct exactly one; later calls build fresh
        programs, as each block needs its own bound state.
        """
        program = self.program
        if program is not None and not self._program_taken:
            self._program_taken = True
            return program
        return self._protocol_factory().lockstep_program()

    @property
    def adversary(self):
        """A memoized probe adversary instance (type/flag checks only)."""
        if self._adversary is None:
            self._adversary = self._adversary_factory()
        return self._adversary


def iter_blocks(nodes_per_trial: np.ndarray, horizon: int):
    """Split trials into contiguous blocks bounded by the element cap."""
    trials = len(nodes_per_trial)
    lo = 0
    while lo < trials:
        hi = lo
        elements = 0
        while hi < trials:
            trial_elements = int(nodes_per_trial[hi]) * (horizon + 1)
            if hi > lo and elements + trial_elements > MAX_BLOCK_ELEMENTS:
                break
            elements += trial_elements
            hi += 1
        yield lo, hi
        lo = hi


class SeedPlan:
    """Read-only derivation of every stream the serial path would spawn.

    The serial path derives, per trial root sequence with spawn key ``K``:
    the adversary generator at ``K + (base, 0)`` and node ``i``'s generator at
    ``K + (base + 1, i, 0)`` (``base`` being the root's spawned-children
    count, normally 0).  This plan reproduces those spawn keys arithmetically
    so the trees themselves are never advanced.
    """

    def __init__(
        self,
        source,  # List[SeedTree] or TrialSeedBatch
        trials: int,
        entropy: Optional[int],
        keys: Optional[np.ndarray],
        bases: Optional[np.ndarray],
    ) -> None:
        self._source = source
        self._trials = trials
        self._entropy = entropy
        self._keys = keys
        self._bases = bases

    @property
    def trials(self) -> int:
        return self._trials

    @property
    def fast(self) -> bool:
        return self._keys is not None

    def _tree(self, index: int) -> SeedTree:
        trees = (
            self._source.trees
            if isinstance(self._source, TrialSeedBatch)
            else self._source
        )
        return trees[index]

    @classmethod
    def build(cls, source) -> "SeedPlan":
        trials = len(source)
        if not fast_seed_path_ok() or not trials:
            return cls(source, trials, None, None, None)
        if isinstance(source, TrialSeedBatch):
            # Children of one root: keys follow arithmetically without ever
            # materializing the per-trial SeedSequence objects.
            entropy, root_key, first = source.spawn_descriptor()
            if not isinstance(entropy, int):
                return cls(source, trials, None, None, None)
            key_matrix = np.empty((trials, len(root_key) + 1), dtype=np.uint64)
            key_matrix[:, : len(root_key)] = np.asarray(root_key, dtype=np.uint64)
            key_matrix[:, -1] = first + np.arange(trials, dtype=np.uint64)
            bases = np.zeros(trials, dtype=np.uint64)
        else:
            entropies = set()
            keys = []
            base_list = []
            for tree in source:
                sequence = tree.sequence
                if not isinstance(sequence.entropy, int):
                    return cls(source, trials, None, None, None)
                entropies.add(sequence.entropy)
                keys.append(sequence.spawn_key)
                base_list.append(sequence.n_children_spawned)
            lengths = {len(key) for key in keys}
            if len(entropies) != 1 or len(lengths) != 1:
                return cls(source, trials, None, None, None)
            entropy = entropies.pop()
            key_matrix = np.asarray(keys, dtype=np.uint64)
            bases = np.asarray(base_list, dtype=np.uint64)
        if key_matrix.size and key_matrix.max() > 0xFFFFFFFF:
            return cls(source, trials, None, None, None)
        return cls(source, trials, entropy, key_matrix, bases)

    def restrict(self, lo: int, hi: int) -> "SeedPlan":
        """A plan over the contiguous trial range ``[lo, hi)``.

        Fast-path plans only (the sliced plan cannot resolve slow-path tree
        lookups, which the fast path never needs).  Used by the lockstep
        kernel to process oversized studies in bounded trial blocks.
        """
        if not self.fast:
            raise ValueError("restrict() requires a fast seed plan")
        return SeedPlan(
            None, hi - lo, self._entropy, self._keys[lo:hi], self._bases[lo:hi]
        )

    # -- fast-path state derivation ---------------------------------------

    def adversary_generator_states(self) -> Optional[np.ndarray]:
        """``generate_state`` words of each trial's adversary generator."""
        if not self.fast:
            return None
        keys = np.concatenate(
            (
                self._keys,
                self._bases[:, None],
                np.zeros((self.trials, 1), dtype=np.uint64),
            ),
            axis=1,
        )
        words = assemble_seed_words(self._entropy, keys)
        return None if words is None else bulk_seed_states(words)

    def node_generator_states(
        self,
        trial_indices: range,
        nodes_per_trial: np.ndarray,
        total_rows: int,
    ) -> Optional[np.ndarray]:
        """State words of every node generator in the block, in row order."""
        if not self.fast or total_rows == 0:
            return None if not self.fast else np.zeros((0, 4), dtype=np.uint64)
        lo = trial_indices.start
        hi = trial_indices.stop
        repeats = nodes_per_trial.astype(np.int64)
        keys = np.empty(
            (total_rows, self._keys.shape[1] + 3), dtype=np.uint64
        )
        keys[:, : self._keys.shape[1]] = np.repeat(
            self._keys[lo:hi], repeats, axis=0
        )
        keys[:, -3] = np.repeat(self._bases[lo:hi] + 1, repeats)
        keys[:, -2] = np.concatenate(
            [np.arange(n, dtype=np.uint64) for n in repeats]
        )
        keys[:, -1] = 0
        words = assemble_seed_words(self._entropy, keys)
        return None if words is None else bulk_seed_states(words)

    def node_states_pairs(
        self, trial_ids: np.ndarray, node_ids: np.ndarray
    ) -> Optional[np.ndarray]:
        """State words for arbitrary (trial, node-index) pairs, in pair order.

        The incremental form the lockstep kernel needs when arrivals are
        revealed slot by slot rather than known up front.
        """
        if not self.fast:
            return None
        count = len(trial_ids)
        if count == 0:
            return np.zeros((0, 4), dtype=np.uint64)
        keys = np.empty((count, self._keys.shape[1] + 3), dtype=np.uint64)
        keys[:, : self._keys.shape[1]] = self._keys[trial_ids]
        keys[:, -3] = self._bases[trial_ids] + 1
        keys[:, -2] = np.asarray(node_ids, dtype=np.uint64)
        keys[:, -1] = 0
        words = assemble_seed_words(self._entropy, keys)
        return None if words is None else bulk_seed_states(words)

    # -- slow-path fallbacks ----------------------------------------------

    def fresh_generator(
        self, states: Optional[np.ndarray], index: int
    ) -> np.random.Generator:
        """A standalone generator for this trial's adversary stream.

        Fresh object (never pooled), so adversaries may retain it safely.
        """
        if states is not None:
            bit_generator = np.random.PCG64(0)
            bit_generator.state = pcg64_state_dict(states[index])
            return np.random.Generator(bit_generator)
        sequence = self._tree(index).sequence
        base = sequence.n_children_spawned
        child = np.random.SeedSequence(
            entropy=sequence.entropy,
            spawn_key=tuple(sequence.spawn_key) + (base, 0),
        )
        return np.random.default_rng(child)

    def slow_node_generators(
        self, trial_indices: range, nodes_per_trial: np.ndarray
    ):
        """Per-node generators via real SeedSequence objects (fallback)."""
        for offset, index in enumerate(trial_indices):
            sequence = self._tree(index).sequence
            base = sequence.n_children_spawned
            key = tuple(sequence.spawn_key)
            for i in range(int(nodes_per_trial[offset])):
                child = np.random.SeedSequence(
                    entropy=sequence.entropy,
                    spawn_key=key + (base + 1, i, 0),
                )
                yield np.random.default_rng(child)


def compile_adversary_schedules(
    adversary_factory,
    config,
    plan: SeedPlan,
    horizon: int,
) -> Optional[Tuple[List[Adversary], np.ndarray, np.ndarray]]:
    """Set up and precompile one adversary per trial.

    Consumes exactly the randomness the serial path would: one generator
    spawned from each trial's adversary tree, then whatever the adversary's
    ``setup``/``precompile`` draw from it.  Returns ``None`` when any trial's
    adversary turns out not to be precompilable.
    """
    trials = plan.trials
    adversary_states = plan.adversary_generator_states()
    outer_pool = ReusableGenerator()
    arrivals_pool = ReusableGenerator()
    jamming_pool = ReusableGenerator()

    # The two per-trial strategy seeds (ComposedAdversary.strategy_seeds)
    # are two bounded draws from each trial's adversary generator; with
    # the verified replication they are derived for every trial in one
    # vectorized pass instead of reseeding a generator per trial.
    seed_pairs = None
    if adversary_states is not None and fast_bounded_pairs_ok():
        seed_pairs = bulk_bounded_pairs63(adversary_states).tolist()

    adversaries: List[Adversary] = []
    pending: List[Tuple[int, Adversary]] = []
    strategy_seeds: List[int] = []
    arrivals_all = np.zeros((trials, horizon + 1), dtype=np.int64)
    jammed_all = np.zeros((trials, horizon + 1), dtype=bool)

    for index in range(trials):
        adversary = adversary_factory()
        if not adversary.precompilable:
            return None
        adversaries.append(adversary)
        pooled = (
            adversary_states is not None
            and type(adversary) is ComposedAdversary
            and adversary.arrivals.transient_rng
            and adversary.jamming.transient_rng
        )
        if pooled:
            if seed_pairs is not None:
                strategy_seeds.extend(seed_pairs[index])
            else:
                rng = outer_pool.reseed(adversary_states[index])
                strategy_seeds.extend(adversary.strategy_seeds(rng))
            pending.append((index, adversary))
        else:
            rng = plan.fresh_generator(adversary_states, index)
            adversary.setup(rng, horizon)
            schedule = adversary.precompile(horizon)
            if schedule is None:
                return None
            arrivals_all[index] = schedule.arrivals
            jammed_all[index] = schedule.jammed

    if pending:
        states = seed_states_for_entropies(strategy_seeds)
        for slot, (index, adversary) in enumerate(pending):
            # A strategy that never draws keeps the pool's stale stream;
            # its seed was still consumed from the adversary generator,
            # exactly as in the serial path.
            arrivals_rng = (
                arrivals_pool.reseed(states[2 * slot])
                if adversary.arrivals.consumes_rng
                else arrivals_pool.generator
            )
            jamming_rng = (
                jamming_pool.reseed(states[2 * slot + 1])
                if adversary.jamming.consumes_rng
                else jamming_pool.generator
            )
            adversary.arrivals.setup(arrivals_rng, horizon)
            adversary.jamming.setup(jamming_rng, horizon)
            schedule = adversary.precompile(horizon)
            if schedule is None:
                return None
            arrivals_all[index] = schedule.arrivals
            jammed_all[index] = schedule.jammed

    _cumulative_arrivals(arrivals_all, config)
    return adversaries, arrivals_all, jammed_all


def _cumulative_arrivals(arrivals: np.ndarray, config) -> np.ndarray:
    """Running node counts of ``(T, horizon+1)`` arrival schedules.

    Raises the serial path's :class:`ConfigurationError` when a trial
    exceeds ``max_nodes``: ``nonzero`` returns row-major order, so index 0
    is the first violating trial's first violating slot — the same slot
    the serial run of that trial would have raised on.
    """
    cum = np.cumsum(arrivals, axis=1)
    over_trials, over_slots = np.nonzero(cum > config.max_nodes)
    if over_trials.size:
        raise ConfigurationError(
            f"adversary exceeded max_nodes={config.max_nodes} "
            f"at slot {int(over_slots[0])}"
        )
    return cum


def study_early_stops(
    config,
    adversaries: List[Adversary],
    cum_arrivals: np.ndarray,
    prefix_successes: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Per-trial stop slots under ``stop_when_drained`` (else the horizon)."""
    simulated = np.full(len(adversaries), horizon, dtype=np.int64)
    if not config.stop_when_drained:
        return simulated
    occupancy_after = cum_arrivals - prefix_successes
    for b, adversary in enumerate(adversaries):
        stop_candidates = np.nonzero(
            (occupancy_after[b] == 0) & (cum_arrivals[b] > 0)
        )[0]
        for t in stop_candidates:
            t = int(t)
            if t >= 1 and adversary.arrivals_exhausted(t):
                simulated[b] = t
                break
    return simulated


def emit_study_results(
    adversary_names: List[str],
    arrived: np.ndarray,
    arrival: np.ndarray,
    success: np.ndarray,
    broadcasts: np.ndarray,
    simulated: np.ndarray,
    jammed_slots: np.ndarray,
    silent_slots: np.ndarray,
    protocol_name: str,
    backend_name: str,
    jam_m: Optional[np.ndarray] = None,
    prefix: Optional[Sequence[np.ndarray]] = None,
) -> List[SimulationResult]:
    """Assemble per-trial results from node columns and summary vectors.

    Trial ``b`` owns the next ``arrived[b]`` rows of the node columns: the
    nodes that arrived by its stop ``simulated[b]``, in arrival order,
    with ``success`` 0 for the unfinished.  Its successes, active slots
    and broadcasts reduce over those rows; its jammed and silent slots are
    given.  Each result's node columns are views of its rows, and its
    counters are either views of the ``prefix`` planes (active, arrivals,
    jammed, successes) or derived on first read from its own copy of its
    ``jam_m`` row.
    """
    bounds = np.zeros(len(adversary_names) + 1, dtype=np.int64)
    np.cumsum(arrived, out=bounds[1:])
    succ_at = _segment_sums(success > 0, bounds).tolist()
    act_at = _segment_sums(
        _newly_live_slots(arrived, arrival, success, simulated), bounds
    ).tolist()
    bc_at = _segment_sums(broadcasts, bounds).tolist()
    jam_at = jammed_slots.tolist()
    sil_at = silent_slots.tolist()
    sim_list = simulated.tolist()
    bound_list = bounds.tolist()
    results: List[SimulationResult] = []
    for b, adversary_name in enumerate(adversary_names):
        sim = sim_list[b]
        lo, hi = bound_list[b], bound_list[b + 1]
        successes = succ_at[b]
        silences = sil_at[b]
        counters = jammed = None
        if prefix is None:
            jammed = jam_m[b, : sim + 1].copy()
        else:
            counters = PrefixCounters(*(plane[b, : sim + 1] for plane in prefix))
        summary = SimulationSummary(
            total_slots=sim,
            active_slots=act_at[b],
            successes=successes,
            collisions=sim - successes - silences,
            silent_slots=silences,
            jammed_slots=jam_at[b],
            arrivals=hi - lo,
            total_broadcasts=bc_at[b],
        )
        results.append(
            SimulationResult(
                summary=summary,
                node_stats=NodeColumns(
                    arrival[lo:hi], success[lo:hi], broadcasts[lo:hi]
                ),
                counters=counters,
                protocol_name=protocol_name,
                adversary_name=adversary_name,
                horizon=sim,
                backend=backend_name,
                jammed=jammed,
            )
        )
    return results


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the row ranges between consecutive ``bounds``."""
    running = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=running[1:])
    return np.diff(running[bounds])


def _newly_live_slots(
    arrived: np.ndarray,
    arrival: np.ndarray,
    success: np.ndarray,
    simulated: np.ndarray,
) -> np.ndarray:
    """Per row, the slots of its live interval no earlier row of its trial
    covers; summed per trial, the slots in which some node was live.

    A node is live from its arrival through its success (or its trial's
    stop), and a slot is active when some node is live in it.  Rows are in
    arrival order within a trial, so a running maximum of the interval
    ends bounds what the earlier rows cover; offsetting each trial's slots
    past the previous trial's keeps one running maximum for all trials.
    """
    trial = np.repeat(np.arange(len(arrived), dtype=np.int64), arrived)
    offset = trial * (int(simulated.max(initial=0)) + 2)
    end = np.where(success > 0, success, simulated[trial]) + offset
    covered = np.full_like(end, -1)
    np.maximum.accumulate(end[:-1], out=covered[1:])
    fresh = end - np.maximum(arrival - 1 + offset, covered)
    return np.maximum(fresh, 0, out=fresh)
