"""Tests for the consistent-hash sharded study store."""

import errno
import json
import os
import re
import shutil
import time

import pytest

from repro.errors import SpecError
from repro.serve import ShardedStudyStore
from repro.spec import AdversarySpec, ProtocolSpec, StudySpec, StudyStore

SEED = 77


def aloha_spec(seed=SEED, horizon=512) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.05}),
        adversary=AdversarySpec.batch(8, jam_fraction=0.25),
        horizon=horizon,
        trials=1,
        seed=seed,
    )


def fill(store, count, seed0=0):
    """Run and put ``count`` distinct tiny studies; returns their specs."""
    specs = [aloha_spec(seed=seed0 + i) for i in range(count)]
    for spec in specs:
        store.put(spec, spec.run())
    return specs


class TestTopology:
    def test_ring_config_persisted_and_reloaded(self, tmp_path):
        first = ShardedStudyStore(tmp_path, shards=3)
        assert first.shards == ["shard-00", "shard-01", "shard-02"]
        reopened = ShardedStudyStore(tmp_path)
        assert reopened.shards == first.shards
        assert reopened.ring.virtual_nodes == first.ring.virtual_nodes

    def test_conflicting_shard_count_rejected(self, tmp_path):
        ShardedStudyStore(tmp_path, shards=2)
        with pytest.raises(SpecError, match="sharded 2 ways"):
            ShardedStudyStore(tmp_path, shards=4)

    def test_matching_explicit_topology_accepted(self, tmp_path):
        ShardedStudyStore(tmp_path, shards=2)
        again = ShardedStudyStore(tmp_path, shards=2)
        assert len(again.shards) == 2

    def test_corrupt_ring_config_rejected(self, tmp_path):
        ShardedStudyStore(tmp_path, shards=2)
        (tmp_path / "ring.json").write_text("{not json")
        with pytest.raises(SpecError, match="ring"):
            ShardedStudyStore(tmp_path)


class TestStoreSurface:
    def test_put_get_round_trip(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=3)
        spec = aloha_spec()
        study = spec.run()
        store.put(spec, study)
        assert spec in store
        cached = store.get(spec)
        assert cached is not None
        assert cached.from_cache
        assert (
            cached.summary_row()["mean_successes"]
            == study.summary_row()["mean_successes"]
        )

    def test_entry_lands_on_its_ring_shard(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=3)
        for spec in fill(store, 8):
            digest = spec.spec_hash()
            shard = store.shard_for(spec)
            assert store.ring.node_for(digest) == shard
            assert (tmp_path / shard / digest[:2] / f"{digest}.json").exists()

    def test_entries_merged_across_shards(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=3)
        specs = fill(store, 10)
        assert store.entries() == sorted(s.spec_hash() for s in specs)

    def test_placement_agrees_across_instances(self, tmp_path):
        writer = ShardedStudyStore(tmp_path, shards=3)
        specs = fill(writer, 6)
        reader = ShardedStudyStore(tmp_path)
        for spec in specs:
            assert spec in reader
            assert reader.get(spec) is not None

    def test_shard_store_is_a_plain_study_store(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=2)
        spec = fill(store, 1)[0]
        shard = store.shard_store(store.shard_for(spec))
        assert isinstance(shard, StudyStore)
        assert shard.get(spec) is not None
        with pytest.raises(SpecError, match="unknown shard"):
            store.shard_store("shard-99")

    def test_works_as_study_plan_store(self, tmp_path):
        from repro.spec import StudyPlan, Sweep

        store = ShardedStudyStore(tmp_path, shards=2)
        plan = StudyPlan.from_sweep(
            Sweep(aloha_spec(), {"horizon": [256, 512]})
        )
        first = plan.run(store=store)
        assert all(not r.cached for r in first)
        second = plan.run(store=store)
        assert all(r.cached for r in second)


class TestStats:
    def test_stats_totals_match_shards(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=3)
        fill(store, 8)
        stats = store.stats()
        assert stats["entries"] == 8
        assert stats["entries"] == sum(
            s["entries"] for s in stats["shards"].values()
        )
        assert stats["bytes"] == sum(s["bytes"] for s in stats["shards"].values())
        assert stats["bytes"] > 0
        assert set(stats["shards"]) == set(store.shards)


class TestEviction:
    def _aged_store(self, tmp_path, count):
        """A store whose entries look like an earlier session wrote them."""
        writer = ShardedStudyStore(tmp_path, shards=2)
        specs = fill(writer, count)
        past = time.time() - 3600
        for spec in specs:
            os.utime(writer.path_for(spec), (past, past))
        return ShardedStudyStore(tmp_path), specs

    def test_evict_brings_shards_under_budget(self, tmp_path):
        store, _specs = self._aged_store(tmp_path, 12)
        entry_bytes = max(
            s["bytes"] for s in store.stats()["shards"].values()
        )
        budget = entry_bytes // 2
        report = store.evict(budget)
        assert report["evicted"]
        assert report["freed_bytes"] > 0
        assert not report["over_budget_shards"]
        for shard in store.stats()["shards"].values():
            assert shard["bytes"] <= budget

    def test_evict_oldest_atime_first(self, tmp_path):
        store, specs = self._aged_store(tmp_path, 6)
        # Touch all but one entry so a single entry is clearly the LRU,
        # with an atime ordering the eviction must respect.
        lru = specs[0]
        now = time.time()
        for spec in specs[1:]:
            os.utime(store.path_for(spec), (now - 10, now - 3600))
        stats = store.stats()
        shard = store.shard_for(lru)
        budget = stats["shards"][shard]["bytes"] - 1  # evict exactly one
        report = store.evict(budget)
        assert lru.spec_hash() in report["evicted"]

    def test_current_session_entries_never_evicted(self, tmp_path):
        store, _specs = self._aged_store(tmp_path, 4)
        mine = aloha_spec(seed=999)
        store.put(mine, mine.run())
        report = store.evict(0)  # zero budget: evict everything allowed
        assert mine.spec_hash() not in report["evicted"]
        assert mine in store
        # The shard holding only the protected entry stays over budget and
        # says so rather than deleting it.
        assert store.shard_for(mine) in report["over_budget_shards"]

    def test_entries_newer_than_open_are_protected(self, tmp_path):
        writer = ShardedStudyStore(tmp_path, shards=2)
        reader = ShardedStudyStore(tmp_path)
        spec = fill(writer, 1)[0]  # written after reader opened
        report = reader.evict(0)
        assert spec.spec_hash() not in report["evicted"]

    def test_entry_stamped_just_before_open_is_protected(self, tmp_path):
        # The kernel stamps mtimes from a coarser clock than time.time(), so
        # an entry written just after a store opened can carry an mtime a
        # few ms before the open.
        writer = ShardedStudyStore(tmp_path, shards=2)
        spec = fill(writer, 1)[0]
        opened = time.time()
        reader = ShardedStudyStore(tmp_path)
        stamp = opened - 0.005
        os.utime(writer.path_for(spec), (stamp, stamp))
        report = reader.evict(0)
        assert spec.spec_hash() not in report["evicted"]

    def test_negative_budget_rejected(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=2)
        with pytest.raises(SpecError):
            store.evict(-1)


class TestChecksumsAndScrub:
    def test_put_writes_verifiable_checksum(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = fill(store, 1)[0]
        payload = json.loads(store.path_for(spec).read_text())
        from repro.spec.store import payload_checksum

        assert payload["checksum"] == payload_checksum(payload)

    def test_bit_damage_in_valid_json_is_quarantined_on_read(self, tmp_path):
        """Damage that still parses as JSON — the case a parse check alone
        can never catch — must be caught by the content checksum."""
        store = StudyStore(tmp_path)
        spec = fill(store, 1)[0]
        path = store.path_for(spec)
        text = path.read_text()
        damaged = re.sub(
            r'"successes": ?\d+', '"successes":9999', text, count=1
        )
        assert damaged != text
        path.write_text(damaged)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get(spec) is None
        assert f"{spec.spec_hash()}.json" in store.corrupt_entries()

    def test_entry_is_its_canonical_text_written_once(self, tmp_path):
        from repro.spec.store import payload_checksum, result_record

        store = StudyStore(tmp_path)
        spec = aloha_spec()
        study = spec.run()
        text = store.put(spec, study).read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert payload["checksum"] == payload_checksum(payload)
        assert payload["hash"] == spec.spec_hash()
        assert payload["spec"] == spec.to_dict()
        assert payload["results"] == [result_record(r) for r in study.results]
        assert store.get(spec).results[0].latencies() == study.results[0].latencies()

    def test_spaced_entry_from_older_writers_still_verifies(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = fill(store, 1)[0]
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(payload, sort_keys=True))
        assert store.scrub() == {
            "scanned": 1,
            "ok": 1,
            "legacy": 0,
            "quarantined": [],
        }
        assert store.get(spec) is not None

    def test_legacy_entry_without_checksum_still_reads(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = fill(store, 1)[0]
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert store.get(spec) is not None
        report = store.scrub()
        assert report == {
            "scanned": 1,
            "ok": 0,
            "legacy": 1,
            "quarantined": [],
        }

    def test_store_scrub_quarantines_only_damaged_entries(self, tmp_path):
        store = StudyStore(tmp_path)
        specs = fill(store, 3)
        victim = store.path_for(specs[0])
        victim.write_text(victim.read_text().replace(":", ";", 1))  # bad JSON
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = store.scrub()
        assert report["scanned"] == 3
        assert report["ok"] == 2
        assert report["quarantined"] == [specs[0].spec_hash()]
        for spec in specs[1:]:
            assert store.get(spec) is not None

    def test_sharded_scrub_merges_shard_reports(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=2)
        specs = fill(store, 6)
        victim = store.path_for(specs[0])
        victim.write_text("not json at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = store.scrub()
        assert report["scanned"] == 6
        assert report["ok"] == 5
        assert report["quarantined"] == [specs[0].spec_hash()]
        assert report["lost_shards"] == []
        assert set(report["shards"]) == set(store.shards)


class TestShardLoss:
    """A shard whose own calls raise ``OSError`` degrades to misses and
    no-ops with a health event; it never crashes the caller."""

    @staticmethod
    def fail_shard(patch, store, name, method):
        def raise_io_error(*args, **kwargs):
            raise OSError(errno.EIO, "shard I/O error")

        patch.setattr(store.shard_store(name), method, raise_io_error)

    def test_lost_shard_reads_as_miss_with_health_event(
        self, tmp_path, monkeypatch
    ):
        from repro.sim.health import RunHealth, collecting

        store = ShardedStudyStore(tmp_path, shards=2)
        specs = fill(store, 8)
        lost = store.shard_for(specs[0])
        health = RunHealth()
        with monkeypatch.context() as patch:
            self.fail_shard(patch, store, lost, "get")
            with collecting(health):
                for spec in specs:
                    survived = store.shard_for(spec) != lost
                    assert (store.get(spec) is not None) == survived
        assert health.shard_losses
        assert all(e.kind == "shard-loss" for e in health.shard_losses)
        # No fault: everything reads again (degradation, not damage).
        for spec in specs:
            assert store.get(spec) is not None

    def test_lost_shard_write_degrades_to_noop(self, tmp_path, monkeypatch):
        from repro.sim.health import RunHealth, collecting

        store = ShardedStudyStore(tmp_path, shards=2)
        spec = aloha_spec(seed=1234)
        lost = store.shard_for(spec)
        self.fail_shard(monkeypatch, store, lost, "put")
        health = RunHealth()
        with collecting(health):
            path = store.put(spec, spec.run())
        assert not path.exists()
        assert health.shard_losses

    def test_sharded_scrub_reports_lost_shards(self, tmp_path):
        store = ShardedStudyStore(tmp_path, shards=2)
        fill(store, 6)
        lost = store.shards[0]
        kept = len(store.shard_store(store.shards[1]).entries())
        # A regular file where the shard's directory was: Path.glob would
        # silently skip it, so only the scrub's own listing sees the loss.
        shutil.rmtree(tmp_path / lost)
        (tmp_path / lost).write_text("not a directory")
        report = store.scrub()
        assert report["lost_shards"] == [lost]
        assert lost not in report["shards"]
        assert report["scanned"] == kept
