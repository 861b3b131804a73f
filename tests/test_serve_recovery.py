"""Crash safety of the sweep service: WAL, restart recovery, resilient
clients, deadlines, graceful drain, and the SIGKILL acceptance
path (kill the daemon mid-sweep, restart it, demand identical rows)."""

import asyncio
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.errors import ServeError, ServeRetriable, ServeTimeout, ServeUnavailable
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeJournal,
    SweepServer,
)
from repro.spec import AdversarySpec, ProtocolSpec, StudyPlan, StudySpec
from repro.spec.store import result_record

SEED = 47
SRC_ROOT = str(Path(repro.__file__).parents[1])


def aloha_spec(seed=SEED, horizon=256, trials=2) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.05}),
        adversary=AdversarySpec.batch(8, jam_fraction=0.25),
        horizon=horizon,
        trials=trials,
        seed=seed,
    )


def sweep_specs(count, **kwargs):
    return [aloha_spec(seed=SEED + index, **kwargs) for index in range(count)]


def semantic_records(study):
    records = []
    for result in study.results:
        record = result_record(result)
        record.pop("wall_time_seconds")
        record.pop("backend")
        records.append(record)
    return records


# --------------------------------------------------------------- journal


class TestServeJournal:
    def test_accepted_job_is_unfinished_until_terminal(self, tmp_path):
        journal = ServeJournal(tmp_path / "wal.jsonl")
        spec = aloha_spec()
        digest = spec.spec_hash()
        journal.record(digest, "accepted", spec=spec.to_dict(), priority=3)
        backlog = journal.unfinished()
        assert set(backlog) == {digest}
        assert backlog[digest]["spec"] == spec.to_dict()
        assert backlog[digest]["priority"] == 3

        journal.record(digest, "running")
        assert set(journal.unfinished()) == {digest}

        journal.record(digest, "done")
        assert journal.unfinished() == {}

    def test_spec_survives_status_only_appends(self, tmp_path):
        journal = ServeJournal(tmp_path / "wal.jsonl")
        spec = aloha_spec()
        digest = spec.spec_hash()
        journal.record(digest, "accepted", spec=spec.to_dict())
        journal.record(digest, "running")
        journal.record(digest, "requeued", reason="deadline")
        _, accepted = journal.replay()
        assert accepted[digest]["spec"] == spec.to_dict()

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = ServeJournal(path)
        spec = aloha_spec()
        journal.record(spec.spec_hash(), "accepted", spec=spec.to_dict())
        with path.open("a") as handle:
            handle.write('{"hash": "feedface", "status": "acc')  # no newline
        backlog = journal.unfinished()
        assert set(backlog) == {spec.spec_hash()}

    def test_append_after_tear_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = ServeJournal(path)
        with path.open("w") as handle:
            handle.write('{"hash": "feedface", "status": "acc')  # torn
        spec = aloha_spec()
        journal.record(spec.spec_hash(), "accepted", spec=spec.to_dict())
        # The welded-line failure mode would lose the new record too.
        assert set(journal.unfinished()) == {spec.spec_hash()}

    def test_wal_torn_fault_tears_the_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = ServeJournal(path)
        keep = aloha_spec(seed=1)
        torn = aloha_spec(seed=2)
        journal.record(keep.spec_hash(), "accepted", spec=keep.to_dict())
        with faults.injected(
            {"rules": [{"site": "wal-torn", "hash": torn.spec_hash()}]}
        ):
            journal.record(torn.spec_hash(), "accepted", spec=torn.to_dict())
        assert not path.read_text().endswith("\n")
        # The torn record is dropped; the earlier one survives intact.
        assert set(journal.unfinished()) == {keep.spec_hash()}


# ------------------------------------------------------ restart recovery


class TestRestartRecovery:
    def test_backlog_is_requeued_and_executed_on_start(self, tmp_path):
        """A journal of accepted-but-unfinished jobs (the post-crash shape)
        must be completed by a restarted server, with rows seed-for-seed
        identical to an uninterrupted serial StudyPlan.run."""
        journal_path = tmp_path / "wal.jsonl"
        journal = ServeJournal(journal_path)
        specs = sweep_specs(3)
        journal.record(specs[0].spec_hash(), "accepted", spec=specs[0].to_dict())
        journal.record(specs[1].spec_hash(), "accepted", spec=specs[1].to_dict())
        journal.record(specs[1].spec_hash(), "running")
        journal.record(specs[2].spec_hash(), "accepted", spec=specs[2].to_dict())
        with BackgroundServer(
            tmp_path / "store", workers=2, journal=journal_path
        ) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            outcomes = client.results(
                [spec.spec_hash() for spec in specs], wait=True
            )
            by_hash = {o.hash: o for o in outcomes}
            assert bg.server.stats.recovered == 3
            serial = StudyPlan(specs).run()
            for spec, result in zip(specs, serial):
                outcome = by_hash[spec.spec_hash()]
                assert outcome.ok
                assert semantic_records(outcome.study) == semantic_records(
                    result.study
                )

    def test_completed_jobs_recover_as_cache_hits(self, tmp_path):
        """Crash in the put-then-journal gap: the result is in the store but
        the WAL never saw 'done' — recovery must answer from the store, not
        re-execute."""
        journal_path = tmp_path / "wal.jsonl"
        spec = aloha_spec()
        store_root = tmp_path / "store"
        from repro.serve import ShardedStudyStore

        store = ShardedStudyStore(store_root, shards=2)
        StudyPlan([spec]).run(store=store)
        journal = ServeJournal(journal_path)
        journal.record(spec.spec_hash(), "accepted", spec=spec.to_dict())
        journal.record(spec.spec_hash(), "running")
        with BackgroundServer(
            store_root, workers=2, journal=journal_path
        ) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            outcome = client.results([spec.spec_hash()], wait=True)[0]
            assert outcome.status == "cached"
            assert bg.server.stats.recovered == 1
            assert bg.server.stats.executed == 0
        # And the journal now carries the terminal state: a second restart
        # has nothing left to recover.
        assert ServeJournal(journal_path).unfinished() == {}

    def test_claimed_job_recovers_at_its_accepted_priority(self, tmp_path):
        """A job claimed before the crash ends its journal on a 'running'
        record, which carries no priority: recovery reads the priority
        from the job's 'accepted' record."""
        journal_path = tmp_path / "wal.jsonl"
        journal = ServeJournal(journal_path)
        spec = aloha_spec()
        digest = spec.spec_hash()
        journal.record(digest, "accepted", spec=spec.to_dict(), priority=5)
        journal.record(digest, "running")

        async def recover():
            server = SweepServer(None, workers=1, journal=journal_path)
            server._recover_backlog()
            return server._jobs[digest], server._queue.get_nowait()

        job, entry = asyncio.run(recover())
        assert job.priority == 5
        assert entry[0] == 5
        assert entry[2] == digest

    def test_journaled_pipeline_spec_is_not_recovered(self, tmp_path):
        """The daemon refuses pipeline specs at submit, so one found in an
        older journal is not re-queued either: served, it would come back
        without its pipeline's metrics."""
        from repro.spec import PipelineSpec

        journal_path = tmp_path / "wal.jsonl"
        spec = aloha_spec().with_pipeline(
            PipelineSpec(reducers=({"kind": "latency"},))
        )
        ServeJournal(journal_path).record(
            spec.spec_hash(), "accepted", spec=spec.to_dict()
        )

        async def recover():
            server = SweepServer(None, workers=1, journal=journal_path)
            return server._recover_backlog(), server._jobs

        assert asyncio.run(recover()) == (0, {})

    def test_dedupe_is_preserved_across_restart(self, tmp_path):
        journal_path = tmp_path / "wal.jsonl"
        spec = aloha_spec()
        journal = ServeJournal(journal_path)
        journal.record(spec.spec_hash(), "accepted", spec=spec.to_dict())
        with BackgroundServer(
            tmp_path / "store", workers=2, journal=journal_path
        ) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            outcome = client.submit(spec)[0]  # same spec: attach or cache
            assert outcome.ok
            stats = client.stats()
            # One execution total despite recovery + resubmission.
            assert stats["executed"] + stats["jobs"]["cached"] <= 2
            assert bg.server.stats.executed <= 1


# ------------------------------------------------------------- deadlines


class TestDeadline:
    def test_deadline_requeues_then_fails(self, tmp_path):
        """An execution that can never meet its deadline burns its requeue
        budget and lands in 'failed' with a deadline error."""
        with BackgroundServer(
            tmp_path / "store",
            workers=1,
            journal=tmp_path / "wal.jsonl",
            deadline=0.001,
            requeues=1,
        ) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            outcome = client.submit(aloha_spec(horizon=2048, trials=4))[0]
            assert not outcome.ok
            assert outcome.status == "failed"
            assert "deadline" in outcome.error
            assert bg.server.stats.requeued == 1
        state = ServeJournal(tmp_path / "wal.jsonl").replay()[0]
        statuses = [r["status"] for r in state.values()]
        assert statuses == ["failed"]

    def test_hung_group_requeues_then_completes(self, tmp_path):
        """A group wedged by the dispatcher-hang fault overruns its
        deadline; its job re-queues and finishes on the next attempt."""
        with faults.injected(
            {"rules": [{"site": "dispatcher-hang", "times": 1}]}
        ):
            with BackgroundServer(
                tmp_path / "store",
                workers=1,
                deadline=0.5,
                requeues=2,
            ) as bg:
                client = ServeClient(*bg.address, timeout=60.0)
                outcome = client.submit(aloha_spec())[0]
                assert outcome.ok
                assert outcome.status == "done"
                assert outcome.attempts >= 2
                assert bg.server.stats.requeued >= 1

    def test_hung_dispatcher_job_fails_when_requeues_exhausted(self, tmp_path):
        with faults.injected({"rules": [{"site": "dispatcher-hang"}]}):
            with BackgroundServer(
                tmp_path / "store",
                workers=1,
                deadline=0.3,
                requeues=0,
            ) as bg:
                client = ServeClient(*bg.address, timeout=60.0)
                outcome = client.submit(aloha_spec())[0]
                assert not outcome.ok
                assert outcome.status == "failed"
                assert outcome.error.startswith("deadline")


# ----------------------------------------------------- client resilience


class TestClientResilience:
    def test_default_timeout_is_finite(self):
        client = ServeClient("127.0.0.1", 1)
        assert client._timeout == 300.0
        assert client._retries == 4
        assert client._backoff == 0.25

    def test_unresponsive_server_raises_serve_timeout(self):
        """A server that accepts but never answers must not hang the client
        forever — the typed, retriable timeout fires instead."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            client = ServeClient(
                "127.0.0.1", port, timeout=0.2, retries=1, backoff=0.01
            )
            start = time.monotonic()
            with pytest.raises(ServeTimeout):
                client.stats()
            assert time.monotonic() - start < 10.0

    def test_refused_connection_raises_serve_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", port, timeout=0.5, retries=0)
        with pytest.raises(ServeUnavailable) as excinfo:
            client.stats()
        assert isinstance(excinfo.value, ServeRetriable)
        assert isinstance(excinfo.value, ServeError)

    def test_stream_cut_before_its_end_is_retried(self):
        """A server that acks a waiting submit and then closes mid-stream (a
        restart) is retried; when every attempt is cut the client raises
        the retriable ServeUnavailable, not a missing-result error."""
        requests = []

        def serve(listener):
            for _ in range(3):
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as reader:
                    requests.append(json.loads(reader.readline()))
                    ack = {"ok": True, "op": "submit", "jobs": []}
                    conn.sendall((json.dumps(ack) + "\n").encode())

        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(3)
            server = threading.Thread(target=serve, args=(listener,), daemon=True)
            server.start()
            client = ServeClient(
                *listener.getsockname()[:2], timeout=5.0, retries=2, backoff=0.01
            )
            with pytest.raises(ServeUnavailable, match="before its end event"):
                client.submit(aloha_spec())
            server.join(timeout=10.0)
        assert not server.is_alive()
        assert [request["op"] for request in requests] == ["submit"] * 3

    def test_conn_drop_fault_is_retried_transparently(self, tmp_path):
        """A connection dropped mid-submit re-sends the whole request; the
        server-side dedupe turns the re-send into a reattach."""
        with BackgroundServer(tmp_path / "store", workers=2) as bg:
            client = ServeClient(
                *bg.address, timeout=60.0, retries=3, backoff=0.01
            )
            with faults.injected(
                {"rules": [{"site": "conn-drop", "op": "submit", "times": 1}]}
            ):
                outcome = client.submit(aloha_spec())[0]
            assert outcome.ok

    def test_conn_drop_exhausting_retries_surfaces_unavailable(self, tmp_path):
        with BackgroundServer(tmp_path / "store", workers=2) as bg:
            client = ServeClient(
                *bg.address, timeout=60.0, retries=1, backoff=0.01
            )
            with faults.injected({"rules": [{"site": "conn-drop"}]}):
                with pytest.raises(ServeUnavailable, match="conn-drop"):
                    client.stats()

    def test_sweep_survives_server_restart_mid_flight(self, tmp_path):
        """The acceptance scenario in-process: a client sweep keeps retrying
        through a full server stop/restart on the same port+journal+store
        and its rows are seed-for-seed identical to a serial run."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        store_root = tmp_path / "store"
        journal = tmp_path / "wal.jsonl"
        specs = sweep_specs(6, horizon=512, trials=2)
        client = ServeClient(
            "127.0.0.1", port, timeout=20.0, retries=8, backoff=0.05
        )
        results = {}
        errors = []

        def run_sweep():
            try:
                results["plan"] = client.run_plan(specs)
            except BaseException as exc:  # noqa: BLE001 — reported in-test
                errors.append(exc)

        first = BackgroundServer(
            store_root, workers=2, journal=journal, port=port
        )
        first.__enter__()
        worker = threading.Thread(target=run_sweep, daemon=True)
        try:
            worker.start()
            time.sleep(0.4)  # let some jobs land and some execute
            first.stop()  # hard stop: in-flight waits die mid-stream
            with BackgroundServer(
                store_root, workers=2, journal=journal, port=port
            ):
                worker.join(timeout=120.0)
                assert not worker.is_alive()
        finally:
            first.stop()
        assert not errors, f"sweep died across restart: {errors[0]!r}"
        serial = StudyPlan(specs).run()
        for planned, expected in zip(results["plan"], serial):
            assert not planned.failed
            assert semantic_records(planned.study) == semantic_records(
                expected.study
            )


# -------------------------------------------------- daemon (subprocess)


def _daemon_command(store_root, journal, *extra):
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--workers",
        "2",
        "--store-root",
        str(store_root),
        "--journal",
        str(journal),
        *extra,
    ]


def _spawn_daemon(store_root, journal, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        _daemon_command(store_root, journal, *extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    line = ""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            break
        if proc.poll() is not None:
            break
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        proc.wait(timeout=30.0)
        proc.stdout.close()
        raise AssertionError(f"daemon did not announce its port: {line!r}")
    return proc, (match.group(1), int(match.group(2))), line


@pytest.mark.slow
class TestDaemonCrashRestart:
    def test_sigkill_restart_completes_sweep_identically(self, tmp_path):
        """SIGKILL the daemon mid-sweep with queued + running jobs, restart
        it over the same journal/store, and demand every accepted job
        completes with rows seed-for-seed identical to a serial
        StudyPlan.run — including a torn trailing WAL line."""
        store_root = tmp_path / "store"
        journal = tmp_path / "wal.jsonl"
        # The fused backlog must outlast the sleep below: it takes about
        # 0.5 s on a 2-vCPU host (12 jobs of 4 trials at horizon 2048 took
        # about 60 ms and often finished before the kill).
        specs = sweep_specs(24, horizon=4096, trials=64)

        proc, address, _ = _spawn_daemon(store_root, journal)
        try:
            client = ServeClient(*address, timeout=30.0)
            accepted = client.submit(specs, wait=False)
            assert len(accepted) == len(specs)
            time.sleep(0.05)  # a mix of done / running / queued jobs
        finally:
            proc.kill()  # SIGKILL: no drain, no flush
            proc.wait(timeout=30.0)
            proc.stdout.close()

        assert ServeJournal(journal).unfinished(), (
            "kill arrived after the whole backlog finished; nothing to "
            "recover — enlarge the sweep"
        )
        # Guarantee the torn-trailing-line case regardless of kill timing.
        with journal.open("a") as handle:
            handle.write('{"hash": "deadbeef", "status": "runn')

        proc, address, banner = _spawn_daemon(store_root, journal)
        try:
            assert "recovered" in banner
            client = ServeClient(*address, timeout=60.0)
            # Reattach exactly as a resumed sweep does: resubmit the same
            # specs — deduped by spec_hash, answered from the job table or
            # the store, never re-executed twice.
            outcomes = client.submit(specs, wait=True)
            by_hash = {o.hash: o for o in outcomes}
            serial = StudyPlan(specs).run()
            for spec, expected in zip(specs, serial):
                outcome = by_hash[spec.spec_hash()]
                assert outcome.ok, outcome.error
                assert semantic_records(outcome.study) == semantic_records(
                    expected.study
                )
            client.shutdown()
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
            proc.stdout.close()
        assert ServeJournal(journal).unfinished() == {}

    def test_sigterm_drains_backlog_and_exits_zero(self, tmp_path):
        store_root = tmp_path / "store"
        journal = tmp_path / "wal.jsonl"
        specs = sweep_specs(4)

        proc, address, _ = _spawn_daemon(store_root, journal)
        try:
            client = ServeClient(*address, timeout=30.0)
            accepted = client.submit(specs, wait=False)
            assert len(accepted) == len(specs)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
            proc.stdout.close()
        assert code == 0
        # Every accepted job reached a terminal, journaled state.
        assert ServeJournal(journal).unfinished() == {}
        state = ServeJournal(journal).replay()[0]
        for spec in specs:
            assert state[spec.spec_hash()]["status"] in ("done", "cached")
