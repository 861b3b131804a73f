"""Tests for the persistent benchmark harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    collect_bench,
    compare_bench,
    default_bench_path,
    load_bench,
    machine_info,
    render_comparison,
    run_micro_suite,
    write_bench,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def bench_data():
    """One tiny real suite run shared by the module's tests."""
    return collect_bench(
        scale="smoke",
        seed=7,
        backends=("vectorized", "batched-study"),
        include_experiments=False,
        repeats=1,
    )


class TestMicroSuite:
    def test_rejects_unknown_scale(self):
        with pytest.raises(ConfigurationError, match="scale"):
            run_micro_suite(scale="galactic")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            run_micro_suite(scale="smoke", backends=("warp-drive",))

    def test_records_have_required_fields(self, bench_data):
        micro = [b for b in bench_data["benchmarks"] if b["kind"] == "micro"]
        assert micro, "micro suite produced no records"
        for record in micro:
            assert record["wall_time_s"] > 0
            assert record["slots_per_second"] > 0
            assert record["per_trial_s"] > 0
            assert record["backend"] in ("vectorized", "batched-study")
            assert record["params"]["trials"] >= 1

    def test_records_have_memory_profile(self, bench_data):
        micro = [b for b in bench_data["benchmarks"] if b["kind"] == "micro"]
        for record in micro:
            assert record["peak_bytes_per_slot"] > 0
            # Four int64 prefix columns retained per slot.
            assert record["result_bytes_per_slot"] == 32.0
            # The pre-columnar list representation must measure strictly larger.
            assert (
                record["legacy_list_bytes_per_slot"]
                > record["result_bytes_per_slot"]
            )

    def test_batched_records_report_streaming_bytes(self, bench_data):
        batched = [
            b
            for b in bench_data["benchmarks"]
            if b["kind"] == "micro" and b["backend"] == "batched-study"
        ]
        assert batched
        for record in batched:
            # Streaming keeps only summaries; nothing per-slot is retained.
            assert record["streaming_result_bytes_per_slot"] == 0.0

    def test_batched_records_report_vectorized_speedup(self, bench_data):
        batched = [
            b
            for b in bench_data["benchmarks"]
            if b["kind"] == "micro" and b["backend"] == "batched-study"
        ]
        assert batched
        for record in batched:
            assert record["speedup_vs_vectorized"] > 0


class TestDocument:
    def test_schema_and_machine_fields(self, bench_data):
        assert bench_data["schema_version"] == SCHEMA_VERSION
        assert bench_data["machine"] == machine_info()
        assert bench_data["scale"] == "smoke"

    def test_roundtrip_through_file(self, tmp_path, bench_data):
        path = write_bench(bench_data, tmp_path / "BENCH_test.json")
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(bench_data))

    def test_load_rejects_other_schema_versions(self, tmp_path, bench_data):
        data = dict(bench_data, schema_version=999)
        path = write_bench(data, tmp_path / "BENCH_bad.json")
        with pytest.raises(ConfigurationError, match="schema_version"):
            load_bench(path)

    def test_default_path_is_dated(self, tmp_path):
        path = default_bench_path(tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"


class TestComparison:
    def test_identical_files_have_no_regressions(self, bench_data):
        assert compare_bench(bench_data, bench_data) == []

    def test_speedup_regression_detected(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        for record in current["benchmarks"]:
            if "speedup_vs_vectorized" in record:
                record["speedup_vs_vectorized"] *= 0.5
        regressions = compare_bench(bench_data, current, threshold=0.2)
        assert regressions
        assert all(r["metric"] == "speedup_vs_vectorized" for r in regressions)
        report = render_comparison(regressions)
        assert "regression" in report

    def test_wall_time_ignored_across_machines(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        current["machine"] = dict(current["machine"], platform="other-machine")
        for record in current["benchmarks"]:
            record["wall_time_s"] = record["wall_time_s"] * 100
        # Wall time is machine-bound; only normalized speedups are compared.
        assert compare_bench(bench_data, current, threshold=0.2) == []

    def test_wall_time_regression_on_same_machine(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        for record in current["benchmarks"]:
            record["wall_time_s"] = record["wall_time_s"] * 10
        regressions = compare_bench(bench_data, current, threshold=0.2)
        assert any(r["metric"] == "wall_time_s" for r in regressions)

    def test_memory_regression_detected(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        for record in current["benchmarks"]:
            if "result_bytes_per_slot" in record:
                record["result_bytes_per_slot"] *= 2
                record["peak_bytes_per_slot"] *= 2
        regressions = compare_bench(bench_data, current, threshold=0.2)
        metrics = {r["metric"] for r in regressions}
        assert "result_bytes_per_slot" in metrics
        assert "peak_bytes_per_slot" in metrics

    def test_memory_gate_tolerates_missing_baseline_fields(self, bench_data):
        # Comparing against a pre-columnar baseline (no memory fields) must
        # not produce memory regressions.
        baseline = json.loads(json.dumps(bench_data))
        for record in baseline["benchmarks"]:
            for metric in (
                "peak_bytes_per_slot",
                "result_bytes_per_slot",
                "legacy_list_bytes_per_slot",
                "streaming_result_bytes_per_slot",
            ):
                record.pop(metric, None)
        regressions = compare_bench(baseline, bench_data, threshold=0.2)
        assert not any("bytes_per_slot" in r["metric"] for r in regressions)

    def test_missing_benchmark_is_flagged(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        current["benchmarks"] = current["benchmarks"][1:]
        regressions = compare_bench(bench_data, current)
        assert any(r["metric"] == "missing_benchmark" for r in regressions)

    def test_small_changes_within_threshold_pass(self, bench_data):
        current = json.loads(json.dumps(bench_data))
        for record in current["benchmarks"]:
            record["wall_time_s"] *= 1.05
            if "speedup_vs_vectorized" in record:
                record["speedup_vs_vectorized"] *= 0.95
        assert compare_bench(bench_data, current, threshold=0.2) == []


class TestServiceSuite:
    @pytest.fixture(scope="class")
    def service_records(self):
        from repro.bench import run_service_suite

        return run_service_suite(seed=7, repeats=1)

    def test_roundtrip_record_shape(self, service_records):
        assert len(service_records) == 1
        record = service_records[0]
        assert record["kind"] == "micro"
        assert record["id"] == "service-submit-roundtrip"
        assert record["backend"] == "serve"
        assert record["wall_time_s"] > 0
        assert record["slots_per_second"] > 0
        assert record["cold_submit_s"] >= record["cached_submit_s"]
        assert record["cached_hits_per_second"] > 0

    def test_compare_tolerates_baseline_without_service_record(
        self, bench_data, service_records
    ):
        # An older baseline predating the service benchmark must compare
        # clean against a current file that carries it.
        current = json.loads(json.dumps(bench_data))
        current["benchmarks"] = current["benchmarks"] + service_records
        assert compare_bench(bench_data, current, threshold=0.2) == []

    def test_backend_restriction_skips_service_suite(self, bench_data):
        ids = {b["id"] for b in bench_data["benchmarks"]}
        assert "service-submit-roundtrip" not in ids


class TestDispatchSuite:
    @pytest.fixture(scope="class")
    def dispatch_records(self):
        """A 2 × 2 corner of the dispatch matrix at a tiny horizon."""
        from repro import bench

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                bench, "_DISPATCH_SCENARIOS", ("ethernet-burst", "lock-convoy")
            )
            patch.setattr(bench, "_DISPATCH_TRIALS", (1, 2))
            patch.setattr(bench, "_DISPATCH_HORIZONS", (64,))
            return bench.run_dispatch_suite(seed=7, repeats=1)

    def test_cells_record_the_auto_pick_and_both_tiers(self, dispatch_records):
        cells = dispatch_records[:-1]
        picks = {
            (cell["params"]["scenario"], cell["params"]["trials"]): cell[
                "auto_backend"
            ]
            for cell in cells
        }
        # One sparse trial stays per-trial; a batch peak or a second trial
        # takes the lockstep tier.
        assert picks == {
            ("ethernet-burst", 1): "reference",
            ("ethernet-burst", 2): "lockstep",
            ("lock-convoy", 1): "lockstep",
            ("lock-convoy", 2): "lockstep",
        }
        for cell in cells:
            assert cell["kind"] == "dispatch"
            assert cell["reference_s"] > 0 and cell["lockstep_s"] > 0
            assert cell["wall_time_s"] == cell[f"{cell['auto_backend']}_s"]

    def test_summary_sums_picked_over_fastest(self, dispatch_records):
        cells, summary = dispatch_records[:-1], dispatch_records[-1]
        assert summary["id"] == "dispatch-matrix"
        best = sum(min(c["reference_s"], c["lockstep_s"]) for c in cells)
        assert summary["best_wall_time_s"] == pytest.approx(best)
        assert summary["auto_vs_best"] == pytest.approx(
            summary["wall_time_s"] / best
        )
        assert summary["auto_vs_best"] >= 1.0

    def test_auto_vs_best_regression_detected(self, dispatch_records):
        baseline = {"machine": {}, "benchmarks": dispatch_records}
        current = json.loads(json.dumps(baseline))
        current["machine"] = {"platform": "other-machine"}
        current["benchmarks"][-1]["auto_vs_best"] *= 1.5
        regressions = compare_bench(baseline, current, threshold=0.2)
        assert [r["metric"] for r in regressions] == ["auto_vs_best"]
