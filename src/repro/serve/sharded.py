"""Consistent-hash sharded study store with eviction and rebalancing.

:class:`ShardedStudyStore` implements the exact get/put/contains/entries
surface of :class:`~repro.spec.StudyStore`, but routes each study's
``spec_hash()`` to one of K shard directories through a
:class:`~repro.serve.ring.ConsistentHashRing`.  Each shard directory *is* a
plain ``StudyStore`` (same layout, same atomic writes, same corruption
quarantine), so a shard can always be opened, inspected or salvaged as an
ordinary store.

The topology (shard names + virtual-node count) is persisted to
``<root>/ring.json`` when the store is first created, and every later open
loads it — two processes over the same root always agree on placement.
Changing the shard count is an explicit :meth:`rebalance`, which rewrites
the topology and moves only the entries whose owner changed (the
consistent-hash property: an expected ``1/K`` of them).

Because a cache of millions of studies cannot grow unbounded, the store has
an eviction policy: :meth:`evict` brings every shard under a byte budget by
deleting entries LRU-by-atime — except entries written through *this* store
instance (or newer on disk than its open time), which are never evicted:
a long sweep can trim the cache behind itself without cannibalising its own
run.  ``repro store stats|evict|rebalance`` expose all of this from the
shell.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import faults
from ..errors import SpecError
from ..sim import health
from ..spec.store import StudyStore
from ..spec.study import StudySpec
from .ring import DEFAULT_VIRTUAL_NODES, ConsistentHashRing

__all__ = ["ShardedStudyStore"]

RING_FILE = "ring.json"
_DEFAULT_SHARDS = 2


def _shard_names(count: int) -> List[str]:
    return [f"shard-{index:02d}" for index in range(count)]


class ShardedStudyStore:
    """K shard directories behind one ``StudyStore``-shaped facade."""

    def __init__(
        self,
        root: Union[str, Path],
        shards: Optional[int] = None,
        virtual_nodes: Optional[int] = None,
    ) -> None:
        self._root = Path(root)
        config = self._load_ring_config()
        if config is not None:
            names = [str(name) for name in config["shards"]]
            vnodes = int(config.get("virtual_nodes", DEFAULT_VIRTUAL_NODES))
            if shards is not None and int(shards) != len(names):
                raise SpecError(
                    f"store at {self._root} is sharded {len(names)} ways "
                    f"(ring.json); requested {int(shards)} — use rebalance "
                    "to change the topology"
                )
            if virtual_nodes is not None and int(virtual_nodes) != vnodes:
                raise SpecError(
                    f"store at {self._root} uses {vnodes} virtual nodes "
                    f"(ring.json); requested {int(virtual_nodes)} — use "
                    "rebalance to change the topology"
                )
        else:
            names = _shard_names(_DEFAULT_SHARDS if shards is None else int(shards))
            vnodes = (
                DEFAULT_VIRTUAL_NODES
                if virtual_nodes is None
                else int(virtual_nodes)
            )
            if not names:
                raise SpecError("a sharded store needs at least one shard")
            self._write_ring_config(names, vnodes)
        self._ring = ConsistentHashRing(names, vnodes)
        self._stores = {name: StudyStore(self._root / name) for name in names}
        # Entries this instance wrote (plus anything newer on disk than this
        # timestamp) are protected from eviction for the instance's lifetime.
        self._session_written: set[str] = set()
        self._opened_at = time.time()

    # ------------------------------------------------------------- topology

    @property
    def root(self) -> Path:
        return self._root

    @property
    def ring(self) -> ConsistentHashRing:
        return self._ring

    @property
    def shards(self) -> List[str]:
        return self._ring.nodes

    def shard_for(self, spec_or_hash: Union[StudySpec, str]) -> str:
        """Name of the shard owning a spec (or raw hash)."""
        return self._ring.node_for(self._digest(spec_or_hash))

    def shard_store(self, name: str) -> StudyStore:
        """The plain ``StudyStore`` behind one shard directory."""
        try:
            return self._stores[name]
        except KeyError:
            raise SpecError(
                f"unknown shard {name!r}; shards: {', '.join(self.shards)}"
            ) from None

    @staticmethod
    def _digest(spec_or_hash: Union[StudySpec, str]) -> str:
        return (
            spec_or_hash.spec_hash()
            if isinstance(spec_or_hash, StudySpec)
            else str(spec_or_hash)
        )

    def _load_ring_config(self) -> Optional[Dict[str, Any]]:
        path = self._root / RING_FILE
        try:
            data = json.loads(path.read_text())
        except OSError:
            return None
        except json.JSONDecodeError as exc:
            raise SpecError(f"unreadable ring config {path}: {exc}") from exc
        if not isinstance(data, dict) or not data.get("shards"):
            raise SpecError(f"invalid ring config {path}")
        return data

    def _write_ring_config(self, names: List[str], vnodes: int) -> None:
        self._root.mkdir(parents=True, exist_ok=True)
        payload = {"shards": names, "virtual_nodes": vnodes}
        # Atomic like store entries: concurrent openers see the old topology
        # or the new one, never a torn file.
        fd, tmp_name = tempfile.mkstemp(dir=self._root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, self._root / RING_FILE)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------- StudyStore surface

    def path_for(self, spec_or_hash: Union[StudySpec, str]) -> Path:
        digest = self._digest(spec_or_hash)
        return self._stores[self._ring.node_for(digest)].path_for(digest)

    def __contains__(self, spec_or_hash: Union[StudySpec, str]) -> bool:
        return self.path_for(spec_or_hash).exists()

    def _shard_lost(self, name: str) -> bool:
        """Whether a shard is unavailable (injected fault or unreadable dir).

        A shard directory that exists but cannot be listed (permissions,
        yanked mount) is *lost*, not corrupt: its entries degrade to misses
        and its writes to no-ops, each recorded as a ``shard-loss`` health
        event — heavy traffic over a sick disk must not take the service
        down.  A merely *absent* directory is a healthy empty shard.
        """
        if faults.active_plan().fires("shard-loss", shard=name):
            return True
        root = self._stores[name].root
        try:
            if root.exists():
                with os.scandir(root) as entries:
                    next(entries, None)
        except OSError:
            return True
        return False

    def get(self, spec: StudySpec):
        name = self.shard_for(spec)
        if self._shard_lost(name):
            health.note(
                "shard-loss", "store", f"{name} unavailable; reading as a miss"
            )
            return None
        try:
            return self._stores[name].get(spec)
        except OSError as exc:
            health.note(
                "shard-loss", "store", f"{name} unreadable ({exc}); miss"
            )
            return None

    def put(self, spec: StudySpec, study) -> Path:
        digest = spec.spec_hash()
        name = self._ring.node_for(digest)
        path = self._stores[name].path_for(digest)
        if self._shard_lost(name):
            health.note(
                "shard-loss", "store", f"{name} unavailable; result not cached"
            )
            return path
        try:
            path = self._stores[name].put(spec, study)
        except OSError as exc:
            health.note(
                "shard-loss", "store", f"{name} unwritable ({exc}); not cached"
            )
            return path
        self._session_written.add(digest)
        return path

    def entries(self) -> List[str]:
        merged: List[str] = []
        for store in self._stores.values():
            merged.extend(store.entries())
        return sorted(merged)

    def scrub(self) -> Dict[str, Any]:
        """Checksum-verify every entry in every shard; quarantine bad ones.

        Merges the per-shard :meth:`StudyStore.scrub` reports and lists
        shards that could not be scanned at all under ``lost_shards`` —
        a lost shard contributes nothing to the counts rather than
        aborting the walk.
        """
        report: Dict[str, Any] = {
            "scanned": 0,
            "ok": 0,
            "legacy": 0,
            "quarantined": [],
            "shards": {},
            "lost_shards": [],
        }
        for name, store in self._stores.items():
            if self._shard_lost(name):
                report["lost_shards"].append(name)
                continue
            try:
                shard_report = store.scrub()
            except OSError:
                report["lost_shards"].append(name)
                continue
            report["scanned"] += shard_report["scanned"]
            report["ok"] += shard_report["ok"]
            report["legacy"] += shard_report["legacy"]
            report["quarantined"].extend(shard_report["quarantined"])
            report["shards"][name] = shard_report
        report["quarantined"].sort()
        return report

    def corrupt_entries(self) -> List[str]:
        merged: List[str] = []
        for store in self._stores.values():
            merged.extend(store.corrupt_entries())
        return sorted(merged)

    # ------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Any]:
        """Per-shard entry counts and byte usage, plus totals."""
        shards: Dict[str, Any] = {}
        total_entries = 0
        total_bytes = 0
        for name, store in self._stores.items():
            entries = 0
            size = 0
            for path in self._entry_paths(store):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
            shards[name] = {
                "entries": entries,
                "bytes": size,
                "corrupt": len(store.corrupt_entries()),
            }
            total_entries += entries
            total_bytes += size
        return {
            "root": str(self._root),
            "shards": shards,
            "virtual_nodes": self._ring.virtual_nodes,
            "entries": total_entries,
            "bytes": total_bytes,
        }

    @staticmethod
    def _entry_paths(store: StudyStore) -> List[Path]:
        if not store.root.exists():
            return []
        return [
            path
            for path in store.root.glob("*/*.json")
            if path.parent.name != "corrupt"
        ]

    # --------------------------------------------------------- eviction

    def evict(self, budget_bytes: int) -> Dict[str, Any]:
        """Bring every shard under ``budget_bytes``, oldest-atime first.

        Entries written through this instance — or written on disk after it
        was opened — are never evicted, so a running sweep cannot lose its
        own fresh results; a shard whose protected entries alone exceed the
        budget simply stays over it (reported, not forced).
        """
        if budget_bytes < 0:
            raise SpecError("eviction budget must be >= 0 bytes")
        evicted: List[str] = []
        freed = 0
        over_budget: List[str] = []
        for name, store in self._stores.items():
            candidates = []
            used = 0
            for path in self._entry_paths(store):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                used += stat.st_size
                protected = (
                    path.stem in self._session_written
                    or stat.st_mtime >= self._opened_at
                )
                if not protected:
                    candidates.append((stat.st_atime, stat.st_size, path))
            candidates.sort()
            for _atime, size, path in candidates:
                if used <= budget_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                used -= size
                freed += size
                evicted.append(path.stem)
            if used > budget_bytes:
                over_budget.append(name)
        return {
            "evicted": sorted(evicted),
            "freed_bytes": freed,
            "budget_bytes": int(budget_bytes),
            "over_budget_shards": over_budget,
        }

    # ------------------------------------------------------- rebalancing

    def rebalance(
        self,
        shards: Optional[int] = None,
        virtual_nodes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Move entries to their home shards (optionally changing topology).

        With ``shards``/``virtual_nodes`` the ring is rewritten first; the
        consistent-hash property keeps the move set to the expected 1/K of
        entries on a one-shard change.  Without arguments it repairs
        placement (e.g. after files were copied in by hand).  Moves are
        atomic per entry (``os.replace`` within one filesystem), so readers
        racing a rebalance see each entry at exactly one of its two homes.
        """
        names = self.shards
        vnodes = self._ring.virtual_nodes
        if shards is not None:
            if int(shards) < 1:
                raise SpecError("a sharded store needs at least one shard")
            names = _shard_names(int(shards))
        if virtual_nodes is not None:
            vnodes = int(virtual_nodes)
        new_ring = ConsistentHashRing(names, vnodes)
        new_stores = {name: StudyStore(self._root / name) for name in names}
        moved = 0
        kept = 0
        for store in self._stores.values():
            for path in self._entry_paths(store):
                digest = path.stem
                target = new_stores[new_ring.node_for(digest)].path_for(digest)
                if target == path:
                    kept += 1
                    continue
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
                moved += 1
        self._write_ring_config(list(names), vnodes)
        self._ring = new_ring
        self._stores = new_stores
        return {
            "shards": list(names),
            "virtual_nodes": vnodes,
            "moved": moved,
            "kept": kept,
        }
