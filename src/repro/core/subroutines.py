"""The two backoff variants the algorithm is built from.

Both subroutines operate in *local* slot indices: index 1 is the first slot of
the virtual channel they run on, index 2 the next slot of that channel, and so
on.  The protocol layer translates global slot numbers into local indices via
:class:`~repro.channel.virtual.VirtualChannelView`.

``h``-backoff (adaptive, stage-based)
    For every stage ``k ≥ 0``, covering local indices ``[2^k, 2^{k+1})``
    (length ``2^k``), the node picks ``h(2^k)`` indices uniformly at random
    with replacement from the stage and broadcasts exactly in those.  The
    expected per-slot sending rate of stage ``k`` is therefore roughly
    ``h(2^k) / 2^k``, but crucially the *number* of sends per stage is fixed in
    advance, which is what makes the subroutine robust to front-loaded
    jamming (the node never "uses up" its aggressiveness early).

``h``-batch (oblivious, rate-based)
    In local slot ``k`` the node broadcasts with probability ``min(1, h(k))``
    independently of everything else.  With ``h(x) = 1/x`` this is the
    textbook "broadcast with probability 1/i in slot i" exponential backoff.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

import numpy as np

from ..errors import ConfigurationError

__all__ = ["HBackoff", "HBatch"]


class HBackoff:
    """Stage-based backoff: a fixed number of random send slots per doubling stage."""

    def __init__(
        self,
        budget: Callable[[int], int],
        rng: np.random.Generator,
    ) -> None:
        """``budget(stage_length)`` gives the number of sends for a stage of that length."""
        self._budget = budget
        self._rng = rng
        self._current_stage = -1
        self._stage_start = 1  # local index where the current stage begins
        self._stage_length = 1
        self._send_indices: Set[int] = set()

    @property
    def current_stage(self) -> int:
        return self._current_stage

    def _enter_stage(self, stage: int) -> None:
        self._current_stage = stage
        self._stage_start = 2**stage
        self._stage_length = 2**stage
        count = self._budget(self._stage_length)
        if count < 0:
            raise ConfigurationError("backoff budget must be non-negative")
        count = min(count, self._stage_length) if self._stage_length > 0 else 0
        if count == 0:
            self._send_indices = set()
            return
        draws = self._rng.integers(
            self._stage_start, self._stage_start + self._stage_length, size=count
        )
        # Drawing *with replacement* per the paper; duplicates collapse, which
        # only reduces the number of distinct send slots (never increases it).
        self._send_indices = {int(d) for d in draws}

    def should_send(self, local_index: int) -> bool:
        """Whether the subroutine broadcasts at this local index (1-based)."""
        if local_index < 1:
            raise ConfigurationError("local index must be >= 1")
        stage = local_index.bit_length() - 1  # floor(log2(local_index))
        if stage != self._current_stage:
            if stage < self._current_stage:
                raise ConfigurationError("local indices must be non-decreasing")
            self._enter_stage(stage)
        return local_index in self._send_indices

    def expected_sends_up_to(self, local_index: int) -> int:
        """Upper bound on the number of sends in local slots ``1..local_index``.

        Used by tests to verify the subroutine's total send count is
        ``O(f(t) · log t)`` as the analysis assumes.
        """
        total = 0
        stage = 0
        while 2**stage <= local_index:
            total += self._budget(2**stage)
            stage += 1
        return total


class HBatch:
    """Rate-based batch: broadcast with probability ``min(1, h(k))`` in local slot ``k``."""

    def __init__(
        self,
        rate: Callable[[float], float],
        rng: np.random.Generator,
    ) -> None:
        self._rate = rate
        self._rng = rng

    def probability(self, local_index: int) -> float:
        if local_index < 1:
            raise ConfigurationError("local index must be >= 1")
        return min(1.0, float(self._rate(float(local_index))))

    def should_send(self, local_index: int) -> bool:
        return bool(self._rng.random() < self.probability(local_index))
