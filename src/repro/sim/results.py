"""Simulation results: everything an experiment needs after a run finishes.

A run's outcome is stored *columnar*.  Its per-node statistics are one
:class:`NodeColumns` record (int64 arrival slot, success slot and broadcast
count per node, a node's id being its position) that still reads as the
``Mapping[int, NodeStats]`` it replaced, and its per-slot cumulative
counters — the quantities the paper's (f, g)-throughput definition bounds —
are one :class:`PrefixCounters` record holding four int64 columns.

Kernels that already hold the counter columns (the reference loop, the
vectorized and batched-study kernels) hand them to the result directly.
The lockstep tiers hand over only the node columns and the trial's bool
jam flags: the counters follow from those, so a result derives them on
first read and caches them, and a sweep that reads only summaries,
latencies and energy never builds a per-slot int64 column.  The
historical per-slot list API (``result.prefix_active[t]``, slicing,
``==``) is preserved by :class:`PrefixColumn`, a lightweight read-only
sequence view.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from ..types import NodeStats, SimulationSummary
from .events import EventTrace

__all__ = ["NodeColumns", "PrefixColumn", "PrefixCounters", "SimulationResult"]

#: Names of the four prefix columns, in canonical order.
COLUMN_NAMES = ("active", "arrivals", "jammed", "successes")


class PrefixColumn(SequenceABC):
    """Read-only integer sequence view over one numpy prefix column.

    Behaves like the ``List[int]`` it replaced: indexing (including negative
    indices) returns Python ints, slicing returns another view, iteration
    yields ints, and ``==`` compares element-wise to a single bool — so
    existing consumers and tests are unaffected while the backing storage is
    an int64 column (often a zero-copy view into a whole-study matrix).
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray) -> None:
        self._data = data

    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return PrefixColumn(self._data[index])
        return int(self._data[index])

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrefixColumn):
            return bool(np.array_equal(self._data, other._data))
        if isinstance(other, (list, tuple, np.ndarray)):
            return bool(np.array_equal(self._data, np.asarray(other)))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(tuple(self._data.tolist()))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is None and not copy:
            return self._data
        return np.array(self._data, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrefixColumn({self._data.tolist()!r})"

    def tolist(self) -> List[int]:
        return self._data.tolist()


@dataclass(frozen=True, eq=False)
class PrefixCounters:
    """Columnar per-slot cumulative counters of one run.

    Each column has length ``slots + 1``; index 0 is unused (always 0) and
    ``column[t]`` is the cumulative count over slots ``1..t``.  Columns are
    int64 and may be zero-copy views into a larger study matrix — the record
    never copies what kernels hand it (int64 input passes through
    ``np.asarray`` untouched).
    """

    active: np.ndarray
    arrivals: np.ndarray
    jammed: np.ndarray
    successes: np.ndarray

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ would compare arrays elementwise
        # (ambiguous in bool context); counters are equal iff every column is.
        if not isinstance(other, PrefixCounters):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in COLUMN_NAMES
        )

    def __post_init__(self) -> None:
        lengths = set()
        for name in COLUMN_NAMES:
            column = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, column)
            lengths.add(column.shape[0])
        if len(lengths) != 1 or min(lengths) < 1:
            raise AnalysisError(
                f"prefix columns must share one length >= 1, got {sorted(lengths)}"
            )

    @classmethod
    def from_lists(
        cls,
        active: Sequence,
        arrivals: Sequence,
        jammed: Sequence,
        successes: Sequence,
    ) -> "PrefixCounters":
        return cls(
            active=np.asarray(active, dtype=np.int64),
            arrivals=np.asarray(arrivals, dtype=np.int64),
            jammed=np.asarray(jammed, dtype=np.int64),
            successes=np.asarray(successes, dtype=np.int64),
        )

    @classmethod
    def derive(
        cls, nodes: "NodeColumns", jammed: np.ndarray, slots: int
    ) -> "PrefixCounters":
        """The counters of a run of ``slots`` slots from its outcomes.

        ``nodes`` holds every node that arrived by the last slot and
        ``jammed`` the run's jam flags (bool, index 0 False).  Arrivals and
        successes count nodes per slot, and a slot is active when more
        nodes arrived by it than succeeded before it, as in the reference
        loop.
        """
        length = slots + 1
        arrivals = np.cumsum(np.bincount(nodes.arrival, minlength=length))
        per_slot = np.bincount(nodes.success, minlength=length)
        per_slot[0] = 0  # unfinished nodes
        successes = np.cumsum(per_slot)
        active = np.zeros(length, dtype=np.int64)
        np.cumsum(arrivals[1:] > successes[:-1], out=active[1:])
        return cls(
            active=active,
            arrivals=arrivals,
            jammed=np.cumsum(jammed, dtype=np.int64),
            successes=successes,
        )

    def __len__(self) -> int:
        return int(self.active.shape[0])

    @property
    def slots(self) -> int:
        """Number of simulated slots covered by the columns."""
        return len(self) - 1

    @property
    def nbytes(self) -> int:
        """Bytes held by the four columns (views count their visible extent)."""
        return sum(getattr(self, name).nbytes for name in COLUMN_NAMES)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMN_NAMES:
            raise AnalysisError(
                f"unknown prefix column {name!r}; known: {', '.join(COLUMN_NAMES)}"
            )
        return getattr(self, name)

    # ------------------------------------------------------- derived columns

    def per_slot(self, name: str) -> np.ndarray:
        """Per-slot increments of a column: ``per_slot[i]`` is slot ``i+1``."""
        return np.diff(self.column(name))

    def success_slots(self) -> np.ndarray:
        """1-based indices of all successful slots, ascending."""
        return np.flatnonzero(self.per_slot("successes")) + 1

    def windowed_successes(self, window: int) -> np.ndarray:
        """Success counts over consecutive windows (trailing partial included).

        ``slots // window`` full windows plus one partial window when
        ``slots % window`` is nonzero.
        """
        if window < 1:
            raise AnalysisError("window must be >= 1")
        per_slot = self.per_slot("successes")
        if per_slot.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(per_slot, np.arange(0, per_slot.size, window))


#: Names of the three node columns, in :class:`NodeColumns` order.
NODE_COLUMN_NAMES = ("arrival", "success", "broadcasts")


class NodeColumns(MappingABC):
    """Per-node outcomes of one run as three int64 columns.

    Row ``i`` is node ``i`` (nodes are numbered in arrival order):
    ``arrival`` is its arrival slot, ``success`` its success slot (0 while
    unfinished) and ``broadcasts`` its channel-access count.  The record
    reads as the ``Mapping[int, NodeStats]`` it replaced — ``stats[i]``
    builds a :class:`~repro.types.NodeStats` on access — while the result's
    latency and energy surfaces reduce the columns.  Columns may be views
    into a whole-study array; int64 input is never copied.
    """

    __slots__ = NODE_COLUMN_NAMES

    def __init__(self, arrival, success, broadcasts) -> None:
        self.arrival = np.asarray(arrival, dtype=np.int64)
        self.success = np.asarray(success, dtype=np.int64)
        self.broadcasts = np.asarray(broadcasts, dtype=np.int64)
        shapes = {getattr(self, name).shape for name in NODE_COLUMN_NAMES}
        if len(shapes) != 1 or self.arrival.ndim != 1:
            raise AnalysisError(
                f"node columns must be 1-d and of one length, got {sorted(shapes)}"
            )

    @classmethod
    def from_stats(cls, stats: Mapping[int, NodeStats]) -> "NodeColumns":
        """Columns of per-node statistics keyed ``0..n-1`` in order."""
        values = list(stats.values())
        if list(stats) != list(range(len(values))):
            raise AnalysisError("node ids must run 0..n-1 in order")
        return cls(
            [s.arrival_slot for s in values],
            [s.success_slot or 0 for s in values],
            [s.broadcast_count for s in values],
        )

    def __len__(self) -> int:
        return int(self.arrival.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __getitem__(self, node_id) -> NodeStats:
        try:
            index = operator.index(node_id)
        except TypeError:
            raise KeyError(node_id) from None
        if not 0 <= index < len(self):
            raise KeyError(node_id)
        return NodeStats(
            node_id=index,
            arrival_slot=int(self.arrival[index]),
            success_slot=int(self.success[index]) or None,
            broadcast_count=int(self.broadcasts[index]),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeColumns):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in NODE_COLUMN_NAMES
            )
        return super().__eq__(other)

    def latencies(self) -> np.ndarray:
        """Slots from arrival to success, inclusive, of the finished nodes."""
        finished = self.success > 0
        return self.success[finished] - self.arrival[finished] + 1


class SimulationResult:
    """Outcome of a single simulation run.

    Attributes
    ----------
    summary:
        Aggregate counters (slots, successes, arrivals, jammed slots, ...).
    node_stats:
        Per-node lifetime statistics (:class:`NodeColumns`, read as a
        mapping from node id to :class:`~repro.types.NodeStats`; a mapping
        passed in is converted).
    counters:
        Columnar per-slot cumulative counters (:class:`PrefixCounters`):
        handed over by the kernel, or derived on first read from the node
        columns and the run's ``jammed`` flags and then cached.  ``None``
        after :meth:`release_counters` (streaming mode), in which case only
        the summary and the node columns remain.
    trace:
        Full per-slot trace, present only when the run kept it.
    protocol_name / adversary_name / seed / horizon:
        Provenance metadata.
    backend:
        Name of the kernel that executed the run (``"reference"``,
        ``"vectorized"``, ``"batched-study"``, ``"lockstep"`` or
        ``"lockstep-jit"``).
    wall_time_seconds:
        Wall-clock duration of the slot loop, measured by the kernel itself so
        speedups are observable from experiment reports without external
        timers.
    """

    def __init__(
        self,
        summary: SimulationSummary,
        node_stats: Mapping[int, NodeStats],
        counters: Optional[PrefixCounters] = None,
        protocol_name: str = "protocol",
        adversary_name: str = "adversary",
        horizon: int = 0,
        seed: Optional[int] = None,
        trace: Optional[EventTrace] = None,
        extra: Optional[Dict[str, float]] = None,
        backend: str = "reference",
        wall_time_seconds: float = 0.0,
        jammed: Optional[np.ndarray] = None,
    ) -> None:
        self.summary = summary
        self.node_stats = (
            node_stats
            if isinstance(node_stats, NodeColumns)
            else NodeColumns.from_stats(node_stats)
        )
        self._counters = counters
        # The jam flags (bool, index 0 False) the counters derive from
        # while they are not built.
        self._jammed = None if counters is not None else jammed
        self.protocol_name = protocol_name
        self.adversary_name = adversary_name
        self.horizon = horizon
        self.seed = seed
        self.trace = trace
        self.extra = {} if extra is None else extra
        self.backend = backend
        self.wall_time_seconds = wall_time_seconds

    # ---------------------------------------------------- columnar accessors

    @property
    def counters(self) -> Optional[PrefixCounters]:
        """The per-slot counters, derived on first read when not handed over."""
        if self._counters is None and self._jammed is not None:
            self._counters = PrefixCounters.derive(
                self.node_stats, self._jammed, self.horizon
            )
            self._jammed = None
        return self._counters

    @property
    def cached_counters(self) -> Optional[PrefixCounters]:
        """The counters if built or handed over, without deriving them."""
        return self._counters

    @property
    def jam_flags(self) -> Optional[np.ndarray]:
        """What the counters would derive from (``None`` once built or released)."""
        return self._jammed

    def _require_counters(self) -> PrefixCounters:
        counters = self.counters
        if counters is None:
            raise AnalysisError(
                "per-slot prefix counters were released (streaming mode keeps "
                "only reducer state and O(1) summaries); re-run without "
                "streaming to inspect prefixes"
            )
        return counters

    @property
    def prefix_active(self) -> PrefixColumn:
        """Back-compat sequence view of the active-slot prefix column."""
        return PrefixColumn(self._require_counters().active)

    @property
    def prefix_arrivals(self) -> PrefixColumn:
        return PrefixColumn(self._require_counters().arrivals)

    @property
    def prefix_jammed(self) -> PrefixColumn:
        return PrefixColumn(self._require_counters().jammed)

    @property
    def prefix_successes(self) -> PrefixColumn:
        return PrefixColumn(self._require_counters().successes)

    def release_counters(self) -> int:
        """Drop the per-slot data, returning the bytes released.

        Used by streaming studies after every reducer has consumed the run:
        the result keeps its summary, node statistics and provenance, but
        neither its counters nor the jam flags they derive from.
        """
        released = self.memory_bytes()
        self._counters = None
        self._jammed = None
        return released

    def memory_bytes(self) -> int:
        """Bytes of per-slot data held: the counter columns once built or
        handed over, else the jam flags they derive from (0 once released)."""
        held = 0 if self._counters is None else self._counters.nbytes
        return held + (0 if self._jammed is None else self._jammed.nbytes)

    # ----------------------------------------------------- scalar surface

    @property
    def slots_per_second(self) -> float:
        """Simulated slots per wall-clock second (0 when the run was untimed).

        Divides by the slots actually resolved (``summary.total_slots``), not
        the configured horizon — a ``stop_when_drained`` early exit must not
        overstate throughput.
        """
        if self.wall_time_seconds <= 0.0:
            return 0.0
        resolved = self.summary.total_slots or self.horizon
        return resolved / self.wall_time_seconds

    @property
    def total_arrivals(self) -> int:
        return self.summary.arrivals

    @property
    def total_successes(self) -> int:
        return self.summary.successes

    @property
    def total_active_slots(self) -> int:
        return self.summary.active_slots

    @property
    def total_jammed_slots(self) -> int:
        return self.summary.jammed_slots

    @property
    def unfinished_nodes(self) -> int:
        nodes = self.node_stats
        return len(nodes) - int(np.count_nonzero(nodes.success))

    def latencies(self) -> List[int]:
        """Latencies (slots from arrival to success) of all finished nodes."""
        return self.node_stats.latencies().tolist()

    def broadcast_counts(self) -> List[int]:
        """Per-node channel-access counts (the paper's energy metric)."""
        return self.node_stats.broadcasts.tolist()

    def mean_latency(self) -> float:
        lat = self.node_stats.latencies()
        return float(np.mean(lat)) if lat.size else float("nan")

    def max_latency(self) -> Optional[int]:
        lat = self.node_stats.latencies()
        return int(lat.max()) if lat.size else None

    def classical_throughput(self, t: Optional[int] = None) -> float:
        """The paper's classical throughput ``n_t / a_t`` at slot ``t`` (default: horizon).

        Returns ``inf`` when no slot was active (vacuously perfect throughput).
        """
        t = t or self.horizon
        t = min(t, self.horizon)
        if self.counters is None and t == self.horizon:
            # Streaming results can still answer at the horizon from the summary.
            active, arrivals = self.summary.active_slots, self.summary.arrivals
        else:
            counters = self._require_counters()
            active = int(counters.active[t])
            arrivals = int(counters.arrivals[t])
        if active == 0:
            return float("inf")
        return arrivals / active

    def successes_by_slot(self, t: int) -> int:
        t = min(t, self.horizon)
        if self.counters is None and t == self.horizon:
            # Streaming results still answer at the horizon from the summary.
            return self.summary.successes
        return int(self._require_counters().successes[t])

    def describe(self) -> str:
        """One-line human-readable summary used by examples and the CLI."""
        return (
            f"{self.protocol_name} vs {self.adversary_name}: "
            f"{self.summary.successes}/{self.summary.arrivals} messages delivered "
            f"in {self.horizon} slots "
            f"({self.summary.active_slots} active, {self.summary.jammed_slots} jammed)"
        )
