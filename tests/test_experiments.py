"""Tests for the experiment framework and smoke runs of the cheap experiments."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.report import render_report, run_all, write_report
from repro.errors import ConfigurationError, ExperimentError


SMOKE = ExperimentConfig(trials=2, seed=99, scale="smoke")


class TestConfig:
    def test_scale_presets(self):
        assert ExperimentConfig(scale="smoke").scale_factor < 1.0
        assert ExperimentConfig(scale="full").scale_factor > 1.0

    def test_horizon_and_count_scaling(self):
        config = ExperimentConfig(scale="full")
        assert config.horizon(1024) == 4096
        assert config.count(16) == 64

    def test_minimums_respected(self):
        config = ExperimentConfig(scale="smoke")
        assert config.horizon(100, minimum=256) == 256
        assert config.count(4, minimum=8) == 8

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scale="huge")

    def test_with_scale(self):
        config = ExperimentConfig(trials=3, scale="quick").with_scale("smoke")
        assert config.scale == "smoke"
        assert config.trials == 3


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        ids = all_experiments()
        assert ids == sorted(ids)
        assert {f"E{i}" for i in range(1, 11)} <= set(ids)

    def test_get_experiment_returns_instances(self):
        experiment = get_experiment("E1")
        assert isinstance(experiment, Experiment)
        assert experiment.experiment_id == "E1"
        assert experiment.paper_claim

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_every_experiment_has_unique_title(self):
        titles = [get_experiment(eid).title for eid in all_experiments()]
        assert len(titles) == len(set(titles))


class TestResultRendering:
    def make_result(self):
        result = ExperimentResult(
            experiment_id="EX", title="demo", paper_claim="claim"
        )
        result.findings["value"] = 1.5
        result.conclusion = "conclusion text"
        result.consistent_with_paper = True
        return result

    def test_render_text(self):
        text = self.make_result().render_text()
        assert "EX" in text and "conclusion text" in text and "CONSISTENT" in text

    def test_render_markdown(self):
        md = self.make_result().render_markdown()
        assert md.startswith("### EX")
        assert "`value` = 1.5" in md

    def test_render_report_summary_table(self):
        report = render_report([self.make_result()], ExperimentConfig())
        assert "| EX | demo | consistent |" in report


class TestSmokeRuns:
    """Run the cheapest experiments end-to-end at the smoke scale."""

    @pytest.mark.parametrize("experiment_id", ["E1", "E5", "E6", "E10"])
    def test_experiment_produces_tables_and_findings(self, experiment_id):
        result = run_experiment(experiment_id, SMOKE)
        assert result.experiment_id == experiment_id
        assert result.tables, "experiment produced no tables"
        assert result.findings, "experiment produced no findings"
        assert result.conclusion
        assert result.consistent_with_paper is not None

    def test_run_all_subset_and_write_report(self, tmp_path):
        results = run_all(SMOKE, experiment_ids=["E5"])
        path = write_report(tmp_path / "report.md", results, SMOKE)
        content = path.read_text()
        assert "E5" in content
        assert "measured vs paper" in content.lower()


class TestMemory:
    def test_e5_peak_stays_off_horizon_sized_planes(self):
        """E5's 1/i-batch study (n = 64, horizon 16,384 at smoke scale)
        runs lockstep, whose age-profile rows keep only their send slots:
        a warm run's tracemalloc peak stays under 24 MB, where one
        ``(rows × horizon)`` plane of doubles alone takes about 40 MB."""
        import tracemalloc

        config = ExperimentConfig(scale="smoke", trials=5)
        run_experiment("E5", config)
        tracemalloc.start()
        try:
            run_experiment("E5", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"E5 peak {peak / 2**20:.1f} MB"
