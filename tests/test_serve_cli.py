"""Tests for the sweep-service CLI: serve/submit/client/store commands.

In-process tests drive ``main()`` against a :class:`BackgroundServer`; one
subprocess smoke test exercises the real ``repro serve`` daemon end to end
(spawn, submit a sweep twice, assert the second pass is all cache hits,
shut it down).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main
from repro.serve import BackgroundServer, ServeClient, ShardedStudyStore
from repro.spec import AdversarySpec, ProtocolSpec, StudySpec

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def aloha_spec(seed=3, horizon=512) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.05}),
        adversary=AdversarySpec.batch(8, jam_fraction=0.25),
        horizon=horizon,
        trials=1,
        seed=seed,
    )


class TestParser:
    def test_serve_command_parsing(self):
        args = build_parser().parse_args(
            ["serve", "--port", "7500", "--workers", "4", "--shards", "3"]
        )
        assert args.port == 7500
        assert args.workers == 4
        assert args.shards == 3

    def test_submit_requires_spec_or_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_sweep_accepts_server(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "adversarial-jam", "--server", ":7421"]
        )
        assert args.server == ":7421"

    def test_store_actions(self):
        args = build_parser().parse_args(["store", "evict", "--budget", "1024"])
        assert args.action == "evict"
        assert args.budget == 1024


class TestAgainstBackgroundServer:
    def _address(self, server):
        host, port = server.address
        return f"{host}:{port}"

    def test_sweep_server_thin_client(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(aloha_spec().to_json())
        with BackgroundServer(tmp_path / "store") as bg:
            code = main(
                [
                    "sweep",
                    "--spec",
                    str(spec_file),
                    "--axis",
                    "horizon=256,512",
                    "--server",
                    self._address(bg),
                    "--format",
                    "json",
                ]
            )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)

    def test_submit_waits_and_renders(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(aloha_spec().to_json())
        with BackgroundServer(tmp_path / "store") as bg:
            code = main(
                [
                    "submit",
                    "--spec",
                    str(spec_file),
                    "--axis",
                    "seed=1,2",
                    "--server",
                    self._address(bg),
                    "--format",
                    "json",
                ]
            )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2

    def test_submit_no_wait_prints_hashes(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec = aloha_spec()
        spec_file.write_text(spec.to_json())
        with BackgroundServer(tmp_path / "store") as bg:
            code = main(
                [
                    "submit",
                    "--spec",
                    str(spec_file),
                    "--no-wait",
                    "--server",
                    self._address(bg),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert spec.spec_hash() in out
            # Drain the job so server shutdown doesn't race the executor.
            ServeClient(*bg.address).results([spec.spec_hash()])

    def test_client_stats_and_status(self, tmp_path, capsys):
        with BackgroundServer(tmp_path / "store") as bg:
            ServeClient(*bg.address).submit(aloha_spec())
            assert main(["client", "stats", "--server", self._address(bg)]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["executed"] == 1
            assert main(["client", "status", "--server", self._address(bg)]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows[0]["status"] == "done"

    def test_client_result_requires_hashes(self, tmp_path, capsys):
        with BackgroundServer(tmp_path / "store") as bg:
            code = main(["client", "result", "--server", self._address(bg)])
        assert code == 2
        assert "spec hash" in capsys.readouterr().err

    def test_unreachable_server_is_a_clean_error(self, capsys):
        code = main(["client", "stats", "--server", "127.0.0.1:1"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestStoreCommand:
    def test_stats_evict_rebalance_round_trip(self, tmp_path, capsys):
        root = tmp_path / "store"
        store = ShardedStudyStore(root, shards=2)
        for seed in range(6):
            spec = aloha_spec(seed=seed)
            store.put(spec, spec.run())
        # Age the entries so a fresh CLI process may evict them.
        for digest in store.entries():
            past = time.time() - 3600
            os.utime(store.path_for(digest), (past, past))

        assert main(["store", "stats", "--root", str(root), "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 6

        assert main(["store", "rebalance", "--root", str(root), "--shards", "3"]) == 0
        assert "3 shards" in capsys.readouterr().out

        assert (
            main(
                [
                    "store",
                    "evict",
                    "--root",
                    str(root),
                    "--budget",
                    "1",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert len(report["evicted"]) == 6

    def test_evict_without_budget_is_an_error(self, tmp_path, capsys):
        ShardedStudyStore(tmp_path / "store", shards=2)
        code = main(["store", "evict", "--root", str(tmp_path / "store")])
        assert code == 2
        assert "--budget" in capsys.readouterr().err


@pytest.mark.slow
class TestServeSubprocess:
    def test_daemon_round_trip_second_pass_all_cached(self, tmp_path):
        """The CI smoke scenario in miniature: spawn the real daemon, run an
        8-point sweep through it twice, and assert the second pass never
        re-executes."""
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(aloha_spec(horizon=256).to_json())
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--shards",
                "2",
                "--store-root",
                str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = daemon.stdout.readline()
            assert "listening on" in banner, banner
            address = banner.split("listening on ")[1].split()[0]
            submit = [
                sys.executable,
                "-m",
                "repro.cli",
                "submit",
                "--spec",
                str(spec_file),
                "--axis",
                "seed=1,2,3,4",
                "--axis",
                "adversary.jamming.params.fraction=0.0,0.25",
                "--server",
                address,
                "--format",
                "json",
            ]
            first = subprocess.run(
                submit, env=env, capture_output=True, text=True, timeout=300
            )
            assert first.returncode == 0, first.stderr
            first_rows = json.loads(first.stdout)
            assert len(first_rows) == 8

            second = subprocess.run(
                submit, env=env, capture_output=True, text=True, timeout=300
            )
            assert second.returncode == 0, second.stderr
            second_rows = json.loads(second.stdout)
            assert len(second_rows) == 8
            stats = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "client",
                    "stats",
                    "--server",
                    address,
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            counters = json.loads(stats.stdout)
            assert counters["executed"] == 8
            assert counters["cache_hits"] == 8  # the whole second pass

            # Served results must match a local serial run, semantic field
            # for semantic field.
            skip = {"mean_wall_time_s", "mean_slots_per_s",
                    "dispatch_seconds", "run_seconds"}
            from repro.spec import StudyPlan, Sweep, sweep_rows

            sweep = Sweep(
                aloha_spec(horizon=256),
                {
                    "seed": [1, 2, 3, 4],
                    "adversary.jamming.params.fraction": [0.0, 0.25],
                },
            )
            local_rows = sweep_rows(StudyPlan.from_sweep(sweep).run())
            for local, served in zip(local_rows, first_rows):
                for key, value in local.items():
                    if key in skip:
                        continue
                    assert served[key] == value, key

            shutdown = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "client",
                    "shutdown",
                    "--server",
                    address,
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert shutdown.returncode == 0
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGKILL)
                daemon.wait(timeout=10)
            daemon.stdout.close()
