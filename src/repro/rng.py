"""Deterministic randomness management.

Every stochastic component of a simulation (each node's protocol instance, the
adversary, workload generators) draws from its own :class:`numpy.random.Generator`
derived from a single root seed.  This keeps runs reproducible and ensures that
comparing two protocols under the same workload uses identical adversary
randomness.

Bulk seeding
------------

Study-level batching spawns thousands of per-node generators per second, which
makes the per-child cost of ``SeedSequence.spawn`` + ``default_rng`` the hot
path.  The module therefore also provides a *bulk* seeding facility:

* :func:`bulk_seed_states` re-implements the ``SeedSequence`` entropy-mixing
  hash as vectorized numpy ``uint32`` arithmetic, producing the
  ``generate_state(4, uint64)`` words for many spawn keys in one pass;
* :class:`ReusableGenerator` wraps one ``PCG64`` bit generator whose state can
  be reset to any of those words, yielding the *bit-identical* stream a fresh
  ``default_rng(seed_sequence)`` would produce without constructing new
  generator objects.

Both are verified against numpy itself the first time they are used
(:func:`fast_seed_path_ok`); if numpy's internals ever diverge, callers are
expected to fall back to the plain per-child API.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, None]


class SeedTree:
    """A tree of independent random generators derived from one root seed.

    Children are spawned lazily by name or index; spawning the same path twice
    yields independent streams (the underlying ``SeedSequence.spawn`` advances
    state), so callers should hold on to generators they intend to reuse.
    """

    def __init__(self, seed: Union[SeedLike, "SeedTree"] = None) -> None:
        if isinstance(seed, SeedTree):
            self._sequence = seed._sequence
        elif isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)

    @property
    def entropy(self):
        return self._sequence.entropy

    @property
    def sequence(self) -> np.random.SeedSequence:
        """The underlying seed sequence (read-only uses must not spawn)."""
        return self._sequence

    def generator(self) -> np.random.Generator:
        """Return a generator seeded from this node of the tree."""
        return np.random.default_rng(self._sequence.spawn(1)[0])

    def child(self) -> "SeedTree":
        """Spawn an independent child tree."""
        return SeedTree(self._sequence.spawn(1)[0])

    def children(self, count: int) -> Iterator["SeedTree"]:
        """Spawn ``count`` independent child trees."""
        for sequence in self._sequence.spawn(count):
            yield SeedTree(sequence)


def make_generator(seed: SeedLike = None) -> np.random.Generator:
    """Convenience wrapper producing a generator directly from a seed."""
    return SeedTree(seed).generator()


def spawn_generators(seed: SeedLike, count: int) -> list:
    """Produce ``count`` independent generators from one seed."""
    tree = SeedTree(seed)
    return [child.generator() for child in tree.children(count)]


def trial_seeds(seed: SeedLike, trials: int) -> list:
    """Derive per-trial root seeds for a multi-trial study."""
    tree = SeedTree(seed)
    return [child for child in tree.children(trials)]


class TrialSeedBatch:
    """The per-trial seed trees of a study, materialized only on demand.

    Spawning a ``SeedSequence`` child costs a few microseconds; a batched
    study that derives its streams arithmetically (see
    :meth:`spawn_descriptor`) never needs the actual objects.  ``trees``
    materializes them lazily — with exactly the spawn keys
    :func:`trial_seeds` would have produced — for the per-trial fallback
    paths.
    """

    def __init__(self, seed: SeedLike, trials: int) -> None:
        self._root = SeedTree(seed)
        self._trials = trials
        self._base = self._root.sequence.n_children_spawned
        self._trees: Optional[List[SeedTree]] = None

    def __len__(self) -> int:
        return self._trials

    @property
    def trees(self) -> List["SeedTree"]:
        if self._trees is None:
            self._trees = list(self._root.children(self._trials))
        return self._trees

    def spawn_descriptor(self):
        """``(entropy, spawn_key, first_child_index)`` of the root, read-only.

        Trial ``t``'s root sequence is
        ``SeedSequence(entropy, spawn_key=spawn_key + (first_child_index + t,))``
        with zero children spawned.
        """
        sequence = self._root.sequence
        return sequence.entropy, tuple(sequence.spawn_key), self._base


def coerce_generator(
    rng: Optional[Union[np.random.Generator, int]] = None,
) -> np.random.Generator:
    """Accept ``None``, an integer seed or an existing generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return make_generator(rng)


# --------------------------------------------------------------------------
# Bulk seeding: vectorized SeedSequence hashing + PCG64 state reseeding.
#
# Constants below are the published SeedSequence / PCG64 parameters; numpy
# guarantees stream stability for both, and fast_seed_path_ok() re-verifies
# the equivalence at runtime before any caller relies on it.
# --------------------------------------------------------------------------

_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_U32 = 0xFFFFFFFF

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1


def int_to_uint32_words(value: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int (``0`` -> ``[0]``).

    Mirrors numpy's internal coercion of entropy/spawn-key components.
    """
    if value < 0:
        raise ValueError("seed components must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _U32)
        value >>= 32
    return words


def bulk_seed_states(word_matrix: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for many sequences at once.

    ``word_matrix`` holds one assembled entropy per row (entropy words followed
    by spawn-key words, each already coerced to ``uint32``); every row must
    have the same length, exactly as numpy would assemble it.  Returns an
    ``(n, 4)`` ``uint64`` array whose rows equal what
    ``np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, uint64)``
    produces for the corresponding row.
    """
    words = np.ascontiguousarray(word_matrix, dtype=np.uint32)
    n, length = words.shape
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)

    hash_const = _INIT_A

    def _hash(column: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = column ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _U32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros(n, dtype=np.uint32)
    for i in range(_POOL_SIZE):
        pool[:, i] = _hash(words[:, i] if i < length else zero)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[:, i_dst] = _mix(pool[:, i_dst], _hash(pool[:, i_src]))
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            pool[:, i_dst] = _mix(pool[:, i_dst], _hash(words[:, i_src]))

    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        data = pool[:, i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _U32
        data = data * np.uint32(hash_const)
        data ^= data >> _XSHIFT
        state[:, i_dst] = data
    return state.view(np.uint64)


def assemble_seed_words(
    entropy: int, spawn_keys: Sequence[Sequence[int]]
) -> Optional[np.ndarray]:
    """Word matrix for :func:`bulk_seed_states` from one entropy + many keys.

    Returns ``None`` when a spawn-key component does not fit in 32 bits (a
    case numpy encodes with extra words, which would make rows ragged) — the
    caller should fall back to real ``SeedSequence`` objects.
    """
    entropy_words = int_to_uint32_words(int(entropy))
    keys = np.asarray(spawn_keys, dtype=np.uint64)
    if keys.ndim != 2:
        raise ValueError("spawn_keys must be a 2-D (n, k) array of components")
    if keys.size and keys.max() > _U32:
        return None
    if keys.shape[1] and len(entropy_words) < _POOL_SIZE:
        # numpy zero-pads the entropy to the pool size whenever a spawn key is
        # present, so the key words never alias entropy words.
        entropy_words = entropy_words + [0] * (_POOL_SIZE - len(entropy_words))
    n = keys.shape[0]
    matrix = np.empty((n, len(entropy_words) + keys.shape[1]), dtype=np.uint32)
    matrix[:, : len(entropy_words)] = np.asarray(entropy_words, dtype=np.uint32)
    matrix[:, len(entropy_words) :] = keys.astype(np.uint32)
    return matrix


def seed_states_for_entropies(entropies: Sequence[int]) -> np.ndarray:
    """State words for ``SeedSequence(entropy)`` (no spawn key) per entropy.

    Entropies may need different word counts, so rows are grouped by length
    internally; the output order matches the input order.
    """
    values = np.asarray(entropies, dtype=np.uint64)
    if values.ndim != 1:
        raise ValueError("entropies must be one-dimensional")
    out = np.empty((values.size, 4), dtype=np.uint64)
    low = (values & np.uint64(_U32)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    single = high == 0  # one-word entropies (value < 2**32)
    if single.any():
        out[single] = bulk_seed_states(low[single][:, None])
    if not single.all():
        double = ~single
        out[double] = bulk_seed_states(
            np.stack((low[double], high[double]), axis=1)
        )
    return out


def _pcg64_seeded_state(words: Sequence[int]) -> Tuple[int, int]:
    """``(state, inc)`` after ``pcg_setseq_128_srandom`` seeding.

    ``words`` are the four ``generate_state(4, uint64)`` values; the result
    is the 128-bit generator state a fresh ``PCG64(seed_sequence)`` starts
    from.  (The same formula exists limb-wise in :func:`pcg64_bulk_init` for
    the vectorized path; both are pinned by the runtime self-checks.)
    """
    initstate = (int(words[0]) << 64) | int(words[1])
    initseq = (int(words[2]) << 64) | int(words[3])
    inc = ((initseq << 1) | 1) & _U128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _U128
    return state, inc


def pcg64_state_dict(words: Sequence[int]) -> dict:
    """PCG64 ``.state`` dict seeded exactly like ``PCG64(seed_sequence)``."""
    state, inc = _pcg64_seeded_state(words)
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class ReusableGenerator:
    """One ``Generator``/``PCG64`` pair reseedable to any spawned stream.

    ``reseed(words)`` resets the bit generator to the state a fresh
    ``default_rng(seed_sequence)`` would start from (``words`` being that
    sequence's ``generate_state(4, uint64)``), so consecutive uses replay
    independent streams without allocating new generator objects.  The caller
    must finish consuming one stream before reseeding to the next.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self._bit_generator)
        self._template = self._bit_generator.state
        self._template["has_uint32"] = 0
        self._template["uinteger"] = 0

    def reseed(self, words: Sequence[int]) -> np.random.Generator:
        return self.restore(*_pcg64_seeded_state(words))

    def restore(self, state: int, inc: int, skip: int = 0) -> np.random.Generator:
        """Set the 128-bit PCG64 ``state`` and ``inc``, then advance past
        ``skip`` draws."""
        template = self._template
        template["state"]["state"] = state
        template["state"]["inc"] = inc
        self._bit_generator.state = template
        if skip:
            self._bit_generator.advance(skip)
        return self.generator


# --- vectorized PCG64 stepping (128-bit limb arithmetic) -------------------

_U32_64 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_M_HI = np.array(_PCG64_MULT >> 64, dtype=np.uint64)
_M_LO = np.array(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
_M_LO_0, _M_LO_1 = _M_LO & _U32_64, _M_LO >> _SHIFT32  # 32-bit halves
_SHIFT11, _SHIFT58, _ROTATE_MASK = (np.array(n, dtype=np.uint64) for n in (11, 58, 63))
_TWO_POW_M53 = np.array(1.0 / 9007199254740992.0)


def _mulhi64(a: np.ndarray, b: np.ndarray):
    a0 = a & _U32_64
    a1 = a >> _SHIFT32
    b0 = b & _U32_64
    b1 = b >> _SHIFT32
    lo_lo = a0 * b0
    m1 = a1 * b0 + (lo_lo >> _SHIFT32)
    m2 = a0 * b1 + (m1 & _U32_64)
    return a1 * b1 + (m1 >> _SHIFT32) + (m2 >> _SHIFT32)


def _pcg64_step(shi, slo, ihi, ilo):
    """``state * MULT + inc`` mod 2**128 on (hi, lo) limbs, as new arrays."""
    a0, a1 = slo & _U32_64, slo >> _SHIFT32
    m1 = a1 * _M_LO_0 + ((a0 * _M_LO_0) >> _SHIFT32)
    m2 = a0 * _M_LO_1 + (m1 & _U32_64)
    hi = a1 * _M_LO_1 + (m1 >> _SHIFT32) + (m2 >> _SHIFT32)  # mulhi(slo, M_LO)
    hi += slo * _M_HI + shi * _M_LO + ihi
    lo = slo * _M_LO + ilo
    hi += lo < ilo  # the low limb's carry
    return hi, lo


def _pcg64_output(shi, slo):
    """XSL-RR: ``shi ^ slo`` rotated right by the top six bits of ``shi``."""
    rotation = shi >> _SHIFT58
    value = shi ^ slo
    return (value >> rotation) | (value << (-rotation & _ROTATE_MASK))


def pcg64_bulk_init(words: np.ndarray):
    """Vectorized ``pcg_setseq_128_srandom``: (state, inc) limbs per row.

    ``words`` is an ``(n, 4)`` array of ``generate_state(4, uint64)`` values.
    Returns four ``(n,)`` ``uint64`` arrays: state-hi, state-lo, inc-hi,
    inc-lo.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    init_hi, init_lo = words[:, 0], words[:, 1]
    seq_hi, seq_lo = words[:, 2], words[:, 3]
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    state_lo = inc_lo + init_lo
    state_hi = inc_hi + init_hi + (state_lo < inc_lo)
    state_hi, state_lo = _pcg64_step(state_hi, state_lo, inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def bulk_bounded_pairs63(state_words: np.ndarray) -> np.ndarray:
    """Two ``integers(0, 2**63 - 1)`` draws per stream, fully vectorized.

    Replicates numpy's Lemire bounded sampling on the PCG64 raw stream, so
    row ``i`` equals what ``default_rng(seed_sequence_i)`` would return for
    two consecutive ``integers(0, 2**63 - 1)`` calls.  Guarded by
    :func:`fast_bounded_pairs_ok`.
    """
    shi, slo, ihi, ilo = pcg64_bulk_init(state_words)
    rng_excl = np.uint64(2**63 - 1)
    # Lemire threshold (2**64 - rng_excl) % rng_excl == 2 for this range.
    threshold = np.uint64(2)
    out = np.empty((shi.size, 2), dtype=np.uint64)
    for column in range(2):
        shi, slo = _pcg64_step(shi, slo, ihi, ilo)
        raw = _pcg64_output(shi, slo)
        high = _mulhi64(raw, rng_excl)
        leftover = raw * rng_excl
        rejected = leftover < threshold
        while rejected.any():  # probability ~2**-62 per draw
            idx = np.nonzero(rejected)[0]
            shi[idx], slo[idx] = _pcg64_step(shi[idx], slo[idx], ihi[idx], ilo[idx])
            raw_idx = _pcg64_output(shi[idx], slo[idx])
            high[idx] = _mulhi64(raw_idx, rng_excl)
            leftover[idx] = raw_idx * rng_excl
            rejected = leftover < threshold
        out[:, column] = high
    return out


class NodeStreamPool:
    """Many independent PCG64 streams advanced with array operations.

    Each row of the pool is one ``default_rng(seed_sequence)`` stream, stored
    as its raw 128-bit generator state (two ``uint64`` limbs for the state,
    two for the increment) plus numpy's ``next_uint32`` half-word buffer.
    Draws are replicated bit-for-bit:

    * :meth:`doubles` — ``Generator.random()`` (one raw 64-bit word each,
      never touching the 32-bit buffer);
    * :meth:`next_u32` — the buffered ``next_uint32`` primitive (low half
      first, high half buffered);
    * :meth:`bounded_u32` — ``Generator.integers(0, n)`` for ranges that fit
      32 bits (numpy's buffered Lemire rejection sampling);
    * :meth:`pow2_batch` — ``Generator.integers(2**k, 2**(k+1), size=c)``
      with ``k`` shared or given per row (power-of-two ranges have a zero
      rejection threshold, so each draw is exactly one buffered
      ``next_uint32``; a row with ``k == 0`` consumes nothing);
    * :meth:`bounded_scalar` — arbitrary ranges for a single row, including
      the 64-bit Lemire path for ranges beyond 32 bits.

    :meth:`native_doubles` instead hands a row's state to numpy's own
    generator and reads a run of doubles ahead, without moving the row.

    The replication is pinned by :func:`lockstep_streams_ok`, which checks an
    interleaved call pattern against real ``numpy`` generators at runtime;
    callers must consult it before trusting the pool.

    The kernel draws once per busy slot on a few dozen rows, where numpy's
    fixed cost per call outweighs the element work, so constant operands
    are module-level 0-d arrays: a numpy or Python scalar operand costs a
    ufunc about 0.3 µs more per call.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._capacity = 0
        self._state_hi = np.zeros(0, dtype=np.uint64)
        self._state_lo = np.zeros(0, dtype=np.uint64)
        self._inc_hi = np.zeros(0, dtype=np.uint64)
        self._inc_lo = np.zeros(0, dtype=np.uint64)
        self._has32 = np.zeros(0, dtype=bool)
        self._buf32 = np.zeros(0, dtype=np.uint64)
        self._native: Optional[ReusableGenerator] = None
        if capacity:
            self.ensure_capacity(capacity)

    @property
    def capacity(self) -> int:
        return self._capacity

    def ensure_capacity(self, capacity: int) -> None:
        """Grow the backing arrays (appending unseeded rows) to ``capacity``."""
        if capacity <= self._capacity:
            return
        grow = capacity - self._capacity
        self._state_hi = np.concatenate((self._state_hi, np.zeros(grow, np.uint64)))
        self._state_lo = np.concatenate((self._state_lo, np.zeros(grow, np.uint64)))
        self._inc_hi = np.concatenate((self._inc_hi, np.zeros(grow, np.uint64)))
        self._inc_lo = np.concatenate((self._inc_lo, np.zeros(grow, np.uint64)))
        self._has32 = np.concatenate((self._has32, np.zeros(grow, bool)))
        self._buf32 = np.concatenate((self._buf32, np.zeros(grow, np.uint64)))
        self._capacity = capacity

    def remap(self, gather: np.ndarray, capacity: int) -> None:
        """Re-layout the pool: new row ``i`` takes old row ``gather[i]``.

        Rows where ``gather`` is negative become unseeded.  Used when a
        rectangular (trials × nodes) layout grows its per-trial capacity.
        """
        valid = gather >= 0
        source = np.where(valid, gather, 0)
        for name in ("_state_hi", "_state_lo", "_inc_hi", "_inc_lo", "_buf32"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: len(gather)] = np.where(valid, old[source], 0)
            setattr(self, name, new)
        new_has = np.zeros(capacity, dtype=bool)
        new_has[: len(gather)] = self._has32[source] & valid
        self._has32 = new_has
        self._capacity = capacity

    def seed_rows(self, rows: np.ndarray, state_words: np.ndarray) -> None:
        """Initialize ``rows`` from ``generate_state(4, uint64)`` word rows."""
        shi, slo, ihi, ilo = pcg64_bulk_init(state_words)
        self._state_hi[rows] = shi
        self._state_lo[rows] = slo
        self._inc_hi[rows] = ihi
        self._inc_lo[rows] = ilo
        self._has32[rows] = False

    # ------------------------------------------------------------ raw draws

    def raw64(self, rows: np.ndarray) -> np.ndarray:
        """One raw 64-bit word per row (``next_uint64``); advances the states."""
        shi, slo = _pcg64_step(
            self._state_hi[rows],
            self._state_lo[rows],
            self._inc_hi[rows],
            self._inc_lo[rows],
        )
        self._state_hi[rows] = shi
        self._state_lo[rows] = slo
        return _pcg64_output(shi, slo)

    def doubles(self, rows: np.ndarray) -> np.ndarray:
        """One ``Generator.random()`` double per row."""
        return (self.raw64(rows) >> _SHIFT11) * _TWO_POW_M53

    def native_doubles(self, rows: np.ndarray, out: np.ndarray, skip: int = 0) -> None:
        """Fill row ``i`` of ``out`` with stream ``rows[i]``'s next doubles.

        The doubles are the ones :meth:`doubles` would return from the
        row's current state on, past the first ``skip``, but numpy's own
        generator draws them, one native ``random(out=...)`` per row.  The
        rows' states do not move: a later call reads from the same origin,
        so a row is read either this way or by replay, never both.
        """
        native = self._native
        if native is None:
            native = self._native = ReusableGenerator()
        restore = native.restore
        for shi, slo, ihi, ilo, row in zip(
            self._state_hi[rows].tolist(),
            self._state_lo[rows].tolist(),
            self._inc_hi[rows].tolist(),
            self._inc_lo[rows].tolist(),
            out,
        ):
            restore((shi << 64) | slo, (ihi << 64) | ilo, skip).random(out=row)

    def next_u32(self, rows: np.ndarray) -> np.ndarray:
        """One buffered ``next_uint32`` per row, as uint64 values < 2**32."""
        has = self._has32[rows]
        buffered = np.count_nonzero(has)
        if buffered == len(rows):
            self._has32[rows] = False
            return self._buf32[rows]
        if not buffered:
            raw = self.raw64(rows)
            self._buf32[rows] = raw >> _SHIFT32
            self._has32[rows] = True
            return raw & _U32_64
        out = np.empty(len(rows), dtype=np.uint64)
        out[has] = self.next_u32(rows[has])
        fresh = ~has
        out[fresh] = self.next_u32(rows[fresh])
        return out

    # -------------------------------------------------------- bounded draws

    def bounded_u32(self, rows: np.ndarray, rng: np.ndarray) -> np.ndarray:
        """``Generator.integers(0, rng + 1)`` per row; each ``rng`` < 2**32 - 1.

        Rows with ``rng == 0`` consume nothing and yield 0, exactly as numpy's
        zero-range path does.
        """
        rng = np.asarray(rng, dtype=np.uint64)
        if rng.ndim == 0:
            rng = np.full(len(rows), rng)
        drawing = np.count_nonzero(rng)
        if drawing < len(rows):
            out = np.zeros(len(rows), dtype=np.uint64)
            if drawing:
                draw = rng.nonzero()[0]
                out[draw] = self.bounded_u32(rows[draw], rng[draw])
            return out
        rng_excl = rng + 1
        m = self.next_u32(rows) * rng_excl
        leftover = m & _U32_64
        if np.count_nonzero(leftover < rng_excl):
            threshold = ((1 << 32) - rng_excl) % rng_excl
            reject = (leftover < threshold).nonzero()[0]
            while reject.size:
                m[reject] = self.next_u32(rows[reject]) * rng_excl[reject]
                reject = reject[(m[reject] & _U32_64) < threshold[reject]]
        m >>= _SHIFT32
        return m

    def pow2_batch(self, rows: np.ndarray, k, count: int) -> np.ndarray:
        """``integers(2**k, 2**(k+1), size=count)`` per row, as (count, rows).

        ``k`` is one exponent for all rows or an array with one per row.
        Power-of-two ranges have rejection threshold 0, so each draw is one
        buffered ``next_uint32`` shifted down.  Rows with ``k == 0`` consume
        nothing and yield 1, exactly as numpy's zero-range path does.
        Requires ``0 <= k <= 31``.
        """
        k = np.asarray(k, dtype=np.int64)
        if k.ndim == 0:
            k = np.full(len(rows), k)
        if np.count_nonzero(k >> 5):
            raise ValueError("pow2_batch requires 0 <= k <= 31")
        drawing = np.count_nonzero(k)
        if drawing < len(rows):
            out = np.ones((count, len(rows)), dtype=np.int64)
            if drawing:
                draw = k.nonzero()[0]
                out[:, draw] = self.pow2_batch(rows[draw], k[draw], count)
            return out
        k = k.astype(np.uint64)
        shift = _SHIFT32 - k
        out = np.empty((count, len(rows)), dtype=np.uint64)
        for j in range(count):
            out[j] = self.next_u32(rows) >> shift
        out |= 1 << k
        return out.view(np.int64)

    def bounded_scalar(self, row: int, rng: int) -> int:
        """``Generator.integers(0, rng + 1)`` for one row, any 64-bit range."""
        if rng == 0:
            return 0
        rows = np.asarray([row], dtype=np.int64)
        if rng < 0xFFFFFFFF:
            return int(self.bounded_u32(rows, np.uint64(rng))[0])
        if rng == 0xFFFFFFFF:
            return int(self.next_u32(rows)[0])
        if rng == 0xFFFFFFFFFFFFFFFF:
            return int(self.raw64(rows)[0])
        rng_excl = rng + 1
        m = int(self.raw64(rows)[0]) * rng_excl
        leftover = m & 0xFFFFFFFFFFFFFFFF
        if leftover < rng_excl:
            threshold = ((1 << 64) - rng_excl) % rng_excl
            while leftover < threshold:
                m = int(self.raw64(rows)[0]) * rng_excl
                leftover = m & 0xFFFFFFFFFFFFFFFF
        return m >> 64


_FAST_SEED_OK: Optional[bool] = None
_FAST_BOUNDED_OK: Optional[bool] = None
_LOCKSTEP_STREAMS_OK: Optional[bool] = None


def lockstep_streams_ok() -> bool:
    """Whether :class:`NodeStreamPool` matches this numpy at runtime.

    Verified once per process by replaying an interleaved draw pattern
    (doubles, power-of-two integer batches, arbitrary bounded integers,
    buffer-straddling alternations) against real ``default_rng`` streams.
    Any mismatch permanently disables the lockstep fast path.
    """
    global _LOCKSTEP_STREAMS_OK
    if _LOCKSTEP_STREAMS_OK is None:
        _LOCKSTEP_STREAMS_OK = fast_seed_path_ok() and _verify_lockstep_streams()
    return _LOCKSTEP_STREAMS_OK


def _verify_lockstep_streams() -> bool:
    try:
        sequences = [
            np.random.SeedSequence(entropy, spawn_key=key)
            for entropy, key in [
                (20210219, (1, 0, 0)),
                (7, (2, 5, 0)),
                ((1 << 80) + 3, (0, 1, 0)),
            ]
        ]
        pool = NodeStreamPool(len(sequences))
        rows = np.arange(len(sequences), dtype=np.int64)
        pool.seed_rows(
            rows,
            np.stack([s.generate_state(4, np.uint64) for s in sequences]),
        )
        references = [np.random.default_rng(s) for s in sequences]

        if not np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in references])
        ):
            return False
        expected = np.stack(
            [g.integers(8, 16, size=3) for g in references], axis=1
        )
        if not np.array_equal(pool.pow2_batch(rows, 3, 3), expected):
            return False
        # Per-row exponents, one of them on the zero-range path.
        exponents = [0, 5, 31]
        expected = np.stack(
            [
                g.integers(1 << k, 2 << k, size=2)
                for g, k in zip(references, exponents)
            ],
            axis=1,
        )
        if not np.array_equal(pool.pow2_batch(rows, exponents, 2), expected):
            return False
        # A double between bounded draws must skip the 32-bit buffer...
        if not np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in references])
        ):
            return False
        # ... and the next bounded draw must resume from the buffered half.
        for bound in (1, 2, 7, 100, 1 << 20):
            mine = pool.bounded_u32(rows, np.uint64(bound - 1))
            theirs = np.array([g.integers(0, bound) for g in references])
            if not np.array_equal(mine.astype(np.int64), theirs):
                return False
        for row, generator in enumerate(references):
            for bound in (3, 1 << 34, 1 << 63):
                if pool.bounded_scalar(row, bound - 1) != int(
                    generator.integers(0, bound)
                ):
                    return False
        return True
    except Exception:  # pragma: no cover - defensive: never break seeding
        return False


def fast_bounded_pairs_ok() -> bool:
    """Whether :func:`bulk_bounded_pairs63` matches this numpy at runtime."""
    global _FAST_BOUNDED_OK
    if _FAST_BOUNDED_OK is None:
        _FAST_BOUNDED_OK = _verify_fast_bounded_pairs()
    return _FAST_BOUNDED_OK


def _verify_fast_bounded_pairs() -> bool:
    try:
        sequences = [
            np.random.SeedSequence(entropy, spawn_key=key)
            for entropy, key in [(7, (0, 0)), (99, (3, 0)), ((1 << 90) + 5, (1,))]
        ]
        words = np.stack(
            [sequence.generate_state(4, np.uint64) for sequence in sequences]
        )
        mine = bulk_bounded_pairs63(words)
        for row, sequence in enumerate(sequences):
            generator = np.random.default_rng(sequence)
            expected = (
                int(generator.integers(0, 2**63 - 1)),
                int(generator.integers(0, 2**63 - 1)),
            )
            if (int(mine[row, 0]), int(mine[row, 1])) != expected:
                return False
        return True
    except Exception:  # pragma: no cover - defensive: never break seeding
        return False


def fast_seed_path_ok() -> bool:
    """Whether the bulk-seeding replication matches this numpy at runtime.

    Checked once per process against actual ``SeedSequence``/``default_rng``
    objects (multi-word entropy, nested spawn keys, stream draws); any
    mismatch permanently disables the fast path so callers degrade to the
    plain per-child API instead of producing wrong streams.
    """
    global _FAST_SEED_OK
    if _FAST_SEED_OK is None:
        _FAST_SEED_OK = _verify_fast_seed_path()
    return _FAST_SEED_OK


def _verify_fast_seed_path() -> bool:
    try:
        samples: List[Tuple[int, Tuple[int, ...]]] = [
            (20210219, (3, 1, 7, 0)),
            (0, (0,)),
            ((1 << 100) + 12345, (2, 0)),
        ]
        for entropy, key in samples:
            expected = np.random.SeedSequence(
                entropy, spawn_key=key
            ).generate_state(4, np.uint64)
            words = assemble_seed_words(entropy, [key])
            if words is None or not np.array_equal(
                bulk_seed_states(words)[0], expected
            ):
                return False
        # Stream equivalence through the reseeding path.
        sequence = np.random.SeedSequence(99, spawn_key=(4, 2))
        reference = np.random.default_rng(sequence).random(16)
        reusable = ReusableGenerator()
        words = assemble_seed_words(99, [(4, 2)])
        replayed = reusable.reseed(bulk_seed_states(words)[0]).random(16)
        if not np.array_equal(reference, replayed):
            return False
        # Entropy-only path (strategy seeds drawn as integers).
        expected = np.random.SeedSequence((1 << 40) + 7).generate_state(4, np.uint64)
        if not np.array_equal(seed_states_for_entropies([(1 << 40) + 7])[0], expected):
            return False
        return True
    except Exception:  # pragma: no cover - defensive: never break seeding
        return False
