"""Consistent-hash ring used to shard the study store.

Each shard contributes ``virtual_nodes`` points on a 64-bit ring (the
first 8 bytes of ``sha256("<shard>#<v>")``); a key routes to the owner of
the first point at or after its own hash, wrapping around.  Virtual nodes
smooth the load split.  Membership and placement are pure functions of the
shard names, so every process that knows the topology computes the same
routing without coordination.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import SpecError

__all__ = ["ConsistentHashRing"]

#: Default virtual nodes per shard; 128 keeps the load split within a few
#: percent of uniform for small shard counts.
DEFAULT_VIRTUAL_NODES = 128


def _point(label: str) -> int:
    """64-bit ring position of a label (first 8 bytes of its sha256)."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Deterministic key → node placement over a set of named nodes."""

    def __init__(
        self, nodes: Iterable[str], virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    ) -> None:
        names = sorted({str(node) for node in nodes})
        if not names:
            raise SpecError("a consistent-hash ring needs at least one node")
        if virtual_nodes < 1:
            raise SpecError("virtual_nodes must be >= 1")
        self._nodes = names
        self._virtual_nodes = int(virtual_nodes)
        points: List[Tuple[int, str]] = []
        for node in names:
            for replica in range(self._virtual_nodes):
                points.append((_point(f"{node}#{replica}"), node))
        # Ties (astronomically unlikely) resolve by node name, so placement
        # stays deterministic across processes either way.
        points.sort()
        self._points = points
        self._keys = [position for position, _ in points]

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return str(node) in self._nodes

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (clockwise successor of the key's hash)."""
        position = _point(str(key))
        index = bisect.bisect_right(self._keys, position)
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Count of ``keys`` owned by each node (all nodes present)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
