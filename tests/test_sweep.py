"""Tests for the sweep engine and the content-addressed study store."""

import json

import numpy as np
import pytest

from repro.errors import SpecError
from repro.metrics import EnergyReducer
from repro.spec import (
    AdversarySpec,
    PipelineSpec,
    ProtocolSpec,
    StudyPlan,
    StudySpec,
    StudyStore,
    Sweep,
    sweep_rows,
)
from repro.sim.backends.fused import plan_fusion_groups
from repro.spec.store import payload_checksum

SEED = 11


def aloha_spec(horizon=1024, trials=2) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.05}),
        adversary=AdversarySpec.batch(16, jam_fraction=0.25),
        horizon=horizon,
        trials=trials,
        seed=SEED,
        label="aloha-base",
    )


class TestSpecHash:
    def test_stable_across_processes_inputs(self):
        assert aloha_spec().spec_hash() == aloha_spec().spec_hash()

    def test_semantic_change_changes_hash(self):
        base = aloha_spec()
        assert base.spec_hash() != base.with_overrides({"horizon": 2048}).spec_hash()
        assert base.spec_hash() != base.with_overrides({"seed": 12}).spec_hash()
        assert (
            base.spec_hash()
            != base.with_overrides(
                {"adversary.jamming.params.fraction": 0.5}
            ).spec_hash()
        )

    def test_execution_placement_is_hash_neutral(self):
        base = aloha_spec()
        assert base.spec_hash() == base.with_execution(backend="reference").spec_hash()
        assert base.spec_hash() == base.with_execution(workers=4).spec_hash()
        assert base.spec_hash() == base.with_overrides({"label": "other"}).spec_hash()


class TestSweepExpansion:
    def test_cartesian_product_row_major(self):
        sweep = Sweep(
            aloha_spec(),
            {"horizon": [256, 512], "adversary.jamming.params.fraction": [0.1, 0.2]},
        )
        assert sweep.size == 4
        specs = sweep.expand()
        assert [s.horizon for s in specs] == [256, 256, 512, 512]
        fractions = [s.adversary.jamming.params["fraction"] for s in specs]
        assert fractions == [0.1, 0.2, 0.1, 0.2]

    def test_point_labels_name_the_overrides(self):
        sweep = Sweep(aloha_spec(), {"adversary.jamming.params.fraction": [0.1]})
        (spec,) = sweep.expand()
        assert "fraction=0.1" in spec.label
        assert spec.label.startswith("aloha-base")

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            Sweep(aloha_spec(), {"horizon": []})

    def test_no_axes_is_single_point(self):
        assert Sweep(aloha_spec(), {}).expand() == [
            aloha_spec().with_overrides({"label": "aloha-base"})
        ]


class TestStudyStore:
    def test_miss_then_hit(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        assert store.get(spec) is None
        study = StudyPlan([spec]).run(store=store)[0].study
        assert not study.from_cache
        cached = StudyPlan([spec]).run(store=store)[0].study
        assert cached.from_cache
        assert cached.summary_row() == study.summary_row()

    def test_cached_study_preserves_per_trial_metrics(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256, trials=3)
        live = StudyPlan([spec]).run(store=store)[0].study
        cached = StudyPlan([spec]).run(store=store)[0].study
        assert [r.total_successes for r in cached] == [
            r.total_successes for r in live
        ]
        assert [sorted(r.latencies()) for r in cached] == [
            sorted(r.latencies()) for r in live
        ]
        assert [sorted(r.broadcast_counts()) for r in cached] == [
            sorted(r.broadcast_counts()) for r in live
        ]
        np.testing.assert_allclose(
            cached.metric(lambda r: r.mean_latency()),
            live.metric(lambda r: r.mean_latency()),
        )

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        path = store.put(spec, spec.run())
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get(spec) is None
        assert (tmp_path / "corrupt" / path.name).exists()

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        # A stale schema with an intact checksum is a valid old entry: a
        # plain miss, neither quarantined nor warned about.
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        path = store.put(spec, spec.run())
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        payload["checksum"] = payload_checksum(payload)
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert path.exists()
        assert not (tmp_path / "corrupt").exists()

    def test_cached_result_refuses_prefix_throughput(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        StudyPlan([spec]).run(store=store)
        cached = store.get(spec).results[0]
        assert cached.classical_throughput() == cached.classical_throughput(256)
        with pytest.raises(SpecError):
            cached.classical_throughput(100)

    def test_entries_lists_hashes(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        StudyPlan([spec]).run(store=store)
        assert store.entries() == [spec.spec_hash()]


class _CountingStore(StudyStore):
    """A study store that counts its reads per spec hash."""

    def __init__(self, root):
        super().__init__(root)
        self.reads = {}

    def get(self, spec):
        digest = spec.spec_hash()
        self.reads[digest] = self.reads.get(digest, 0) + 1
        return super().get(spec)


def _untimed(rows):
    timing = {
        "mean_wall_time_s", "mean_slots_per_s", "dispatch_seconds", "run_seconds"
    }
    return [{k: v for k, v in row.items() if k not in timing} for row in rows]


class TestStudyPlan:
    def test_twelve_point_grid_on_batched_study_backend(self, tmp_path):
        """The acceptance grid: >= 12 points, batched-study, low dispatch
        cost.  ``auto`` leaves batched-study to an explicit pin: there the
        same grid fuses into one lockstep run with the same results."""
        axes = {
            "adversary.jamming.params.fraction": [0.05, 0.15, 0.25, 0.35],
            "adversary.arrivals.params.count": [16, 32, 64],
        }
        base = aloha_spec(horizon=4096, trials=3)
        sweep = Sweep(base.with_execution(backend="batched-study"), axes)
        assert sweep.size == 12
        store = StudyStore(tmp_path)
        results = StudyPlan.from_sweep(sweep).run(store=store)
        assert len(results) == 12
        # Every point went through the batched study kernel.
        for point in results:
            assert not point.cached
            assert {r.backend for r in point.study} == {"batched-study"}
        # Dispatch (expansion + hashing + cache lookup + publish) stays well
        # under 10% of simulation time.
        dispatch = sum(r.dispatch_seconds for r in results)
        runtime = sum(r.run_seconds for r in results)
        assert dispatch < 0.10 * runtime

        # Second pass: all twelve points served from the store, with
        # identical aggregates.
        rerun = StudyPlan.from_sweep(sweep).run(store=store)
        assert all(point.cached for point in rerun)
        for cold, warm in zip(results, rerun):
            assert cold.study.summary_row() == warm.study.summary_row()

        auto = StudyPlan.from_sweep(Sweep(base, axes))
        groups = plan_fusion_groups(list(enumerate(auto.specs)))
        assert [len(group) for group in groups] == [12]
        for pinned, point in zip(results, auto.run()):
            assert {r.backend for r in point.study} == {"lockstep"}
            assert [r.summary for r in point.study] == [
                r.summary for r in pinned.study
            ]
            assert [r.node_stats for r in point.study] == [
                r.node_stats for r in pinned.study
            ]

    @pytest.mark.parametrize("points", [1, 2])
    def test_pipeline_points_bypass_the_store(self, tmp_path, points):
        """A stored summary has no counters to replay a pipeline over, so a
        plan re-runs pipeline-carrying points (fused or not) instead of
        serving them from the store, as StudySpec.run does."""
        specs = [
            StudySpec(
                protocol=ProtocolSpec(kind="cjz"),
                adversary=AdversarySpec.batch(8, jam_fraction=0.25),
                horizon=256,
                trials=2,
                seed=SEED + point,
                pipeline=PipelineSpec.of(EnergyReducer()),
            )
            for point in range(points)
        ]
        store = StudyStore(tmp_path)
        first = StudyPlan(specs).run(store=store)
        second = StudyPlan(specs).run(store=store)
        for a, b in zip(first, second):
            assert not b.cached
            assert b.study.metrics() is not None
            assert b.study.metrics() == a.study.metrics()

    def test_one_store_lookup_per_point(self, tmp_path):
        """Fusion planning reads the store once per point and the main
        loop serves those reads, cold and warm, with the rows and cached
        flags of per-point dispatch."""
        sweep = Sweep(
            aloha_spec(horizon=256),
            {"adversary.jamming.params.fraction": [0.0, 0.25], "seed": [1, 2, 3]},
        )
        plan = StudyPlan.from_sweep(sweep)
        store = _CountingStore(tmp_path / "fused")
        cold = plan.run(store=store)
        assert store.reads == {spec.spec_hash(): 1 for spec in plan.specs}
        store.reads.clear()
        warm = plan.run(store=store)
        assert store.reads == {spec.spec_hash(): 1 for spec in plan.specs}
        assert [p.cached for p in cold] == [False] * 6
        assert [p.cached for p in warm] == [True] * 6
        unfused = StudyStore(tmp_path / "unfused")
        for fused_pass in (cold, warm):
            expected = plan.run(store=unfused, fuse=False)
            assert _untimed(sweep_rows(fused_pass)) == _untimed(
                sweep_rows(expected)
            )

    def test_duplicate_point_reads_what_its_twin_wrote(self, tmp_path):
        """A point repeated in one plan is served from the store entry its
        first occurrence wrote, as under per-point dispatch: the planning
        read missed, so the main loop reads it again after the write."""
        twin, other = aloha_spec(horizon=128), aloha_spec(horizon=256)
        store = _CountingStore(tmp_path / "fused")
        points = StudyPlan([twin, other, twin]).run(store=store)
        assert [p.cached for p in points] == [False, False, True]
        assert store.reads == {twin.spec_hash(): 3, other.spec_hash(): 1}
        unfused = StudyPlan([twin, other, twin]).run(
            store=StudyStore(tmp_path / "unfused"), fuse=False
        )
        assert _untimed(sweep_rows(points)) == _untimed(sweep_rows(unfused))

    def test_rows_carry_overrides_and_aggregates(self):
        sweep = Sweep(aloha_spec(horizon=128), {"trials": [1, 2]})
        rows = sweep_rows(StudyPlan.from_sweep(sweep).run())
        assert [row["trials"] for row in rows] == [1.0, 2.0]
        for row in rows:
            assert "mean_successes" in row and "hash" in row and "cached" in row

    def test_empty_plan_rejected(self):
        with pytest.raises(SpecError):
            StudyPlan([])


class TestSweepCli:
    def test_cli_sweep_json_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(aloha_spec(horizon=256).to_json())
        args = [
            "sweep",
            "--spec",
            str(spec_file),
            "--axis",
            "adversary.jamming.params.fraction=0.1,0.3",
            "--store",
            str(tmp_path / "store"),
            "--format",
            "json",
        ]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(not row["cached"] for row in rows)
        assert main(args) == 0
        rerun = json.loads(capsys.readouterr().out)
        assert all(row["cached"] for row in rerun)
        for cold, warm in zip(rows, rerun):
            assert cold["mean_successes"] == warm["mean_successes"]

    def test_cli_sweep_scenario_base(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--scenario",
                "adversarial-jam",
                "--axis",
                "horizon=256",
                "--trials",
                "1",
                "--no-store",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("label,")
        assert "adversarial-jam" in out

    def test_cli_sweep_exits_1_when_a_point_failed(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(
            "REPRO_FAULTS", '{"rules": [{"site": "sweep-point", "point": 0}]}'
        )
        code = main(
            [
                "sweep",
                "--scenario",
                "adversarial-jam",
                "--axis",
                "seed=1,2",
                "--axis",
                "horizon=256",
                "--trials",
                "1",
                "--no-store",
                "--on-error",
                "skip",
                "--format",
                "json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["failed", "ok"]
        assert code == 1

    def test_cli_bad_axis_reports_error(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--scenario", "adversarial-jam", "--axis", "oops"])
        assert code == 2
        assert "invalid --axis" in capsys.readouterr().err

    def test_cli_malformed_spec_file_reports_error(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({**aloha_spec().to_dict(), "horizon": "abc"}))
        code = main(["sweep", "--spec", str(spec_file), "--no-store"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'horizon'" in err

    def test_cli_scenarios_json(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        keys = {entry["key"] for entry in payload}
        assert "ethernet-burst" in keys
        for entry in payload:
            StudySpec.from_dict(entry["study"])

    def test_cli_simulate_scenario(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "--scenario", "ethernet-burst", "--horizon", "256", "--seed", "3"]
        )
        assert code == 0
        assert "ethernet-burst" in capsys.readouterr().out


class TestStoreQuarantine:
    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        path = store.put(spec, spec.run())
        path.write_text('{"schema": 1, "results": [{"succ')  # truncated JSON
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(spec) is None
        # The evidence moved to <root>/corrupt/, not deleted.
        assert not path.exists()
        assert store.corrupt_entries() == [path.name]
        # Quarantined entries never pollute the hash listing.
        assert store.entries() == []

    def test_quarantined_point_reruns_and_heals(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        live = StudyPlan([spec]).run(store=store)[0].study
        store.path_for(spec).write_text("{torn")
        with pytest.warns(RuntimeWarning):
            healed = StudyPlan([spec]).run(store=store)[0].study
        assert not healed.from_cache
        timing = ("mean_wall_time_s", "mean_slots_per_s")
        assert {
            k: v for k, v in healed.summary_row().items() if k not in timing
        } == {k: v for k, v in live.summary_row().items() if k not in timing}
        # The store is whole again: next read is a clean cache hit.
        assert store.get(spec) is not None

    def test_store_corrupt_fault_truncates_entry(self, tmp_path):
        from repro import faults

        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        with faults.injected({"rules": [{"site": "store-corrupt"}]}):
            path = store.put(spec, spec.run())
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(spec) is None


class TestResumableSweep:
    def _plan(self):
        return StudyPlan.from_sweep(
            Sweep(aloha_spec(horizon=128), {"trials": [1, 2, 3]})
        )

    def test_on_error_skip_records_failed_points(self, tmp_path):
        from repro import faults

        with faults.injected({"rules": [{"site": "sweep-point", "point": 1}]}):
            results = self._plan().run(
                store=StudyStore(tmp_path), on_error="skip"
            )
        assert [r.failed for r in results] == [False, True, False]
        assert results[1].study is None
        assert "FaultInjected" in results[1].error
        assert results[1].attempts == 1

    def test_on_error_raise_propagates(self):
        from repro import faults
        from repro.errors import FaultInjected

        with faults.injected({"rules": [{"site": "sweep-point", "point": 0}]}):
            with pytest.raises(FaultInjected):
                self._plan().run()

    def test_invalid_on_error_rejected(self):
        with pytest.raises(SpecError, match="on_error"):
            self._plan().run(on_error="explode")

    def test_resume_skips_done_and_reattempts_failed(self, tmp_path):
        from repro import faults

        store = StudyStore(tmp_path / "store")
        with faults.injected({"rules": [{"site": "sweep-point", "point": 1}]}):
            first = self._plan().run(store=store, on_error="skip")
        assert first[1].failed
        assert store.entries() == sorted(
            first[i].spec.spec_hash() for i in (0, 2)
        )
        # No faults now: a re-run against the same store serves the done
        # points from it (attempts == 0) and re-runs only the failed one.
        second = self._plan().run(store=store)
        assert not any(r.failed for r in second)
        assert [r.attempts for r in second] == [0, 1, 0]
        assert [r.cached for r in second] == [True, False, True]

    def test_failed_rows_stay_rectangular(self, tmp_path):
        from repro import faults

        with faults.injected({"rules": [{"site": "sweep-point", "point": 0}]}):
            results = self._plan().run(
                store=StudyStore(tmp_path), on_error="skip"
            )
        rows = sweep_rows(results)
        assert all(set(rows[0]) == set(row) for row in rows)
        assert rows[0]["status"] == "failed"
        assert rows[1]["status"] == "ok"
        assert rows[1]["error"] == ""
        assert rows[0]["mean_successes"] == ""
