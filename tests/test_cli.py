"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_command_parsing(self):
        args = build_parser().parse_args(["run", "E3", "--trials", "2", "--scale", "smoke"])
        assert args.experiment_id == "E3"
        assert args.trials == 2
        assert args.scale == "smoke"

    def test_report_command_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.output == "EXPERIMENTS.md"
        assert args.only is None


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "--arrivals", "8", "--horizon", "256", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chen-jiang-zheng" in out
        assert "throughput" in out

    def test_simulate_explain_backend_explains_the_run(self, capsys):
        from repro import quick_run

        code = main(
            [
                "simulate",
                "--arrivals",
                "32",
                "--horizon",
                "1024",
                "--seed",
                "3",
                "--explain-backend",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        ran = next(line for line in lines if line.startswith("backend: "))
        ran = ran.split()[1]
        # Ladder rows: two-space indent, a 24-wide backend column, a
        # 10-wide status column.
        selected = [
            line[2:26].strip()
            for line in lines
            if line.startswith("  ") and line[27:37].strip() == "selected"
        ]
        assert selected in ([ran], [f"per-trial ({ran})"])
        expected = quick_run(arrivals=32, horizon=1024, seed=3)
        assert lines[:3] == [
            expected.describe(),
            "classical throughput at horizon: "
            f"{expected.classical_throughput():.3f}",
            f"mean latency: {expected.mean_latency():.1f} slots",
        ]

    @pytest.mark.parametrize("backend", ["lockstep", "lockstep-jit"])
    def test_simulate_takes_the_runners_backends(
        self, monkeypatch, capsys, backend
    ):
        # Without the interpreter a lockstep-jit pin demotes to lockstep.
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        code = main(
            [
                "simulate",
                "--arrivals",
                "8",
                "--horizon",
                "256",
                "--seed",
                "3",
                "--backend",
                backend,
            ]
        )
        assert code == 0
        assert "\nbackend: lockstep (" in capsys.readouterr().out

    def test_simulate_vectorized_is_a_clean_error(self, capsys):
        code = main(["simulate", "--horizon", "256", "--backend", "vectorized"])
        assert code == 2
        assert "error: backend 'vectorized' unavailable" in capsys.readouterr().err

    def test_quick_run_takes_a_study_backend(self):
        from repro import quick_run

        result = quick_run(arrivals=8, horizon=256, seed=3, backend="lockstep")
        reference = quick_run(arrivals=8, horizon=256, seed=3, backend="reference")
        assert (result.backend, reference.backend) == ("lockstep", "reference")
        assert result.summary == reference.summary
        assert result.node_stats == reference.node_stats

    def test_run_command_smoke(self, capsys):
        code = main(["run", "E5", "--trials", "2", "--scale", "smoke", "--seed", "7"])
        out = capsys.readouterr().out
        assert "E5" in out
        assert code in (0, 1)

    def test_report_command_writes_file(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        code = main(
            [
                "report",
                "--only",
                "E5",
                "--trials",
                "2",
                "--scale",
                "smoke",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        assert "E5" in output.read_text()


class TestBenchCommand:
    def test_bench_writes_json_and_compares_clean(self, tmp_path, capsys):
        output = tmp_path / "BENCH_ci.json"
        code = main(
            [
                "bench",
                "--scale",
                "smoke",
                "--no-experiments",
                "--repeats",
                "1",
                "--backends",
                "vectorized",
                "batched-study",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slots/s" in out and output.exists()

        code = main(["bench", "--compare", str(output), str(output)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys):
        import json

        output = tmp_path / "BENCH_base.json"
        main(
            [
                "bench",
                "--scale",
                "smoke",
                "--no-experiments",
                "--repeats",
                "1",
                "--backends",
                "vectorized",
                "batched-study",
                "--output",
                str(output),
            ]
        )
        capsys.readouterr()
        data = json.loads(output.read_text())
        for record in data["benchmarks"]:
            if "speedup_vs_vectorized" in record:
                record["speedup_vs_vectorized"] *= 0.3
        worse = tmp_path / "BENCH_worse.json"
        worse.write_text(json.dumps(data))
        code = main(["bench", "--compare", str(output), str(worse)])
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_run_parses_batched_study_backend(self):
        args = build_parser().parse_args(
            ["run", "E5", "--backend", "batched-study"]
        )
        assert args.backend == "batched-study"

    def test_run_explicit_batched_study_errors_for_ineligible_protocol(
        self, capsys
    ):
        # The paper's algorithm is feedback-adaptive, so naming the batched
        # backend explicitly fails fast (same contract as explicit
        # "vectorized"); "auto" falls back instead.
        code = main(
            [
                "run",
                "E5",
                "--trials",
                "2",
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--backend",
                "batched-study",
            ]
        )
        assert code == 2
        assert "not vector-eligible" in capsys.readouterr().err
