"""Tests for the sweep engine and the content-addressed study store."""

import json

import numpy as np
import pytest

from repro.errors import SpecError
from repro.spec import (
    AdversarySpec,
    ProtocolSpec,
    StudyPlan,
    StudySpec,
    StudyStore,
    Sweep,
    sweep_rows,
)
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
        study = spec.run(store=store)
        assert not study.from_cache
        cached = spec.run(store=store)
        assert cached.from_cache
        assert cached.summary_row() == study.summary_row()

    def test_cached_study_preserves_per_trial_metrics(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256, trials=3)
        live = spec.run(store=store)
        cached = spec.run(store=store)
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
        spec.run(store=store)
        cached = store.get(spec).results[0]
        assert cached.classical_throughput() == cached.classical_throughput(256)
        with pytest.raises(SpecError):
            cached.classical_throughput(100)

    def test_entries_lists_hashes(self, tmp_path):
        store = StudyStore(tmp_path)
        spec = aloha_spec(horizon=256)
        spec.run(store=store)
        assert store.entries() == [spec.spec_hash()]


class TestStudyPlan:
    def test_twelve_point_grid_on_batched_study_backend(self, tmp_path):
        """The acceptance grid: >= 12 points, batched-study, low dispatch cost."""
        sweep = Sweep(
            aloha_spec(horizon=4096, trials=3),
            {
                "adversary.jamming.params.fraction": [0.05, 0.15, 0.25, 0.35],
                "adversary.arrivals.params.count": [16, 32, 64],
            },
        )
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

    def test_progress_callback_sees_every_point(self):
        seen = []
        sweep = Sweep(aloha_spec(horizon=128), {"horizon": [128, 256]})
        StudyPlan.from_sweep(sweep).run(progress=seen.append)
        assert [p.spec.horizon for p in seen] == [128, 256]

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

    def test_cli_bad_axis_reports_error(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--scenario", "adversarial-jam", "--axis", "oops"])
        assert code == 2
        assert "invalid --axis" in capsys.readouterr().err

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
        live = spec.run(store=store)
        store.path_for(spec).write_text("{torn")
        with pytest.warns(RuntimeWarning):
            healed = spec.run(store=store)
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

    def test_on_error_retry_reattempts_before_skipping(self, tmp_path):
        from repro import faults

        # attempt 0 fails, attempt 1 succeeds (the rule pins attempt=0).
        with faults.injected(
            {"rules": [{"site": "sweep-point", "point": 1, "attempt": 0}]}
        ):
            results = self._plan().run(
                store=StudyStore(tmp_path), on_error="retry", retries=1
            )
        assert not any(r.failed for r in results)
        assert results[1].attempts == 2

    def test_on_error_raise_propagates(self):
        from repro import faults
        from repro.errors import FaultInjected

        with faults.injected({"rules": [{"site": "sweep-point", "point": 0}]}):
            with pytest.raises(FaultInjected):
                self._plan().run()

    def test_invalid_on_error_rejected(self):
        with pytest.raises(SpecError, match="on_error"):
            self._plan().run(on_error="explode")

    def test_resume_requires_journal(self):
        with pytest.raises(SpecError, match="journal"):
            self._plan().run(resume=True)

    def test_journal_records_outcomes(self, tmp_path):
        from repro import faults
        from repro.spec import PlanJournal

        journal = PlanJournal(tmp_path / "journal.jsonl")
        with faults.injected({"rules": [{"site": "sweep-point", "point": 2}]}):
            self._plan().run(
                store=StudyStore(tmp_path / "store"),
                on_error="skip",
                journal=journal,
            )
        state = journal.load()
        statuses = sorted(record["status"] for record in state.values())
        assert statuses == ["done", "done", "failed"]

    def test_resume_skips_done_and_reattempts_failed(self, tmp_path):
        from repro import faults
        from repro.spec import PlanJournal

        store = StudyStore(tmp_path / "store")
        journal = PlanJournal(tmp_path / "journal.jsonl")
        with faults.injected({"rules": [{"site": "sweep-point", "point": 1}]}):
            first = self._plan().run(
                store=store, on_error="skip", journal=journal
            )
        assert first[1].failed
        # No faults now: the resumed run serves done points from the store
        # (attempts == 0) and re-runs only the failed one.
        second = self._plan().run(store=store, journal=journal, resume=True)
        assert not any(r.failed for r in second)
        assert [r.attempts for r in second] == [0, 1, 0]
        assert [r.cached for r in second] == [True, False, True]
        assert all(
            record["status"] == "done" for record in journal.load().values()
        )

    def test_journal_tolerates_torn_trailing_line(self, tmp_path):
        from repro.spec import PlanJournal

        journal = PlanJournal(tmp_path / "journal.jsonl")
        journal.append({"hash": "abc", "status": "done"})
        with journal.path.open("a") as handle:
            handle.write('{"hash": "def", "sta')  # writer died mid-append
        assert list(journal.load()) == ["abc"]

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
