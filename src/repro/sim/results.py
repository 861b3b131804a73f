"""Simulation results: everything an experiment needs after a run finishes.

The per-slot cumulative counters of a run — the quantities the paper's
(f, g)-throughput definition bounds — are stored *columnar*: a single
:class:`PrefixCounters` record holding four int64 numpy columns.  Kernels
hand their arrays (or views into shared study matrices) straight to the
record with no ``.tolist()`` round trip, and downstream metrics reduce over
the columns with array arithmetic.  The historical per-slot list API
(``result.prefix_active[t]``, slicing, ``==``) is preserved by
:class:`PrefixColumn`, a lightweight read-only sequence view.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from ..types import NodeStats, SimulationSummary
from .events import EventTrace

__all__ = ["PrefixColumn", "PrefixCounters", "SimulationResult"]

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


@dataclass
class SimulationResult:
    """Outcome of a single simulation run.

    Attributes
    ----------
    summary:
        Aggregate counters (slots, successes, arrivals, jammed slots, ...).
    node_stats:
        Per-node lifetime statistics, keyed by node id.
    counters:
        Columnar per-slot cumulative counters (:class:`PrefixCounters`).
        ``None`` after :meth:`release_counters` (streaming mode), in which
        case only the O(1) summary surface remains.
    trace:
        Full per-slot trace, present only when the run kept it.
    protocol_name / adversary_name / seed / horizon:
        Provenance metadata.
    backend:
        Name of the slot kernel that executed the run (``"reference"``,
        ``"vectorized"`` or ``"batched-study"``).
    wall_time_seconds:
        Wall-clock duration of the slot loop, measured by the kernel itself so
        speedups are observable from experiment reports without external
        timers.
    """

    summary: SimulationSummary
    node_stats: Dict[int, NodeStats]
    counters: Optional[PrefixCounters] = None
    protocol_name: str = "protocol"
    adversary_name: str = "adversary"
    horizon: int = 0
    seed: Optional[int] = None
    trace: Optional[EventTrace] = None
    extra: Dict[str, float] = field(default_factory=dict)
    backend: str = "reference"
    wall_time_seconds: float = 0.0

    # ---------------------------------------------------- columnar accessors

    def _require_counters(self) -> PrefixCounters:
        if self.counters is None:
            raise AnalysisError(
                "per-slot prefix counters were released (streaming mode keeps "
                "only reducer state and O(1) summaries); re-run without "
                "streaming to inspect prefixes"
            )
        return self.counters

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
        """Drop the O(horizon) prefix columns, returning the bytes released.

        Used by streaming studies after every reducer has consumed the run:
        the result keeps its summary, node statistics and provenance but no
        longer holds per-slot data.
        """
        counters = self.counters
        if counters is None:
            return 0
        released = counters.nbytes
        self.counters = None
        return released

    def memory_bytes(self) -> int:
        """Bytes retained by the per-slot columns (0 once released)."""
        return 0 if self.counters is None else self.counters.nbytes

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
        return sum(1 for stats in self.node_stats.values() if not stats.finished)

    def latencies(self) -> List[int]:
        """Latencies (slots from arrival to success) of all finished nodes."""
        return [
            stats.latency
            for stats in self.node_stats.values()
            if stats.latency is not None
        ]

    def broadcast_counts(self) -> List[int]:
        """Per-node channel-access counts (the paper's energy metric)."""
        return [stats.broadcast_count for stats in self.node_stats.values()]

    def mean_latency(self) -> float:
        lat = self.latencies()
        return float(np.mean(lat)) if lat else float("nan")

    def max_latency(self) -> Optional[int]:
        lat = self.latencies()
        return max(lat) if lat else None

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
