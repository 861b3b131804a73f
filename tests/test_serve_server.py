"""Tests for the sweep service: server, client, dedupe, faults, identity."""

import asyncio
import json
import socket
import time
from collections import Counter

import pytest

from repro import faults
from repro.errors import ServeError
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ShardedStudyStore,
    SweepServer,
    decode_line,
    encode_message,
)
from repro.sim.backends import fused as fused_module
from repro.sim.backends.fused import fusion_budget
from repro.spec import (
    AdversarySpec,
    PipelineSpec,
    ProtocolSpec,
    StudyPlan,
    StudySpec,
    StudyStore,
    Sweep,
)
from repro.spec.store import result_record

SEED = 31


def aloha_spec(seed=SEED, horizon=512, trials=2) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.05}),
        adversary=AdversarySpec.batch(8, jam_fraction=0.25),
        horizon=horizon,
        trials=trials,
        seed=seed,
    )


def cjz_spec(seed=SEED, horizon=256, trials=1) -> StudySpec:
    return StudySpec(
        protocol=ProtocolSpec(kind="cjz"),
        adversary=AdversarySpec.batch(8, jam_fraction=0.25),
        horizon=horizon,
        trials=trials,
        seed=seed,
    )


def semantic_records(study):
    """Per-trial summary records minus the fields that legitimately vary
    between runs (wall time and the executing backend)."""
    records = []
    for result in study.results:
        record = result_record(result)
        record.pop("wall_time_seconds")
        record.pop("backend")
        records.append(record)
    return records


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(tmp_path / "store", workers=2) as bg:
        yield bg


@pytest.fixture
def client(server):
    return ServeClient(*server.address, timeout=60.0)


class TestSubmitRoundTrip:
    def test_served_study_matches_local_run(self, client):
        spec = aloha_spec()
        outcome = client.submit(spec)[0]
        assert outcome.ok
        assert outcome.status == "done"
        assert not outcome.cached
        assert outcome.attempts == 1
        assert semantic_records(outcome.study) == semantic_records(spec.run())

    def test_fresh_server_serves_store_hit_as_cached(self, tmp_path):
        spec = aloha_spec()
        root = tmp_path / "store"
        with BackgroundServer(root, workers=2) as bg:
            ServeClient(*bg.address).submit(spec)
        # New server over the same store: the entry must be served from
        # disk, never enqueued or executed.
        with BackgroundServer(root, workers=2) as bg:
            client = ServeClient(*bg.address)
            outcome = client.submit(spec)[0]
            assert outcome.status == "cached"
            assert outcome.cached
            assert outcome.attempts == 0
            stats = client.stats()
            assert stats["executed"] == 0
            assert stats["cache_hits"] == 1
            assert semantic_records(outcome.study) == semantic_records(spec.run())

    def test_resubmit_same_server_is_a_cache_hit(self, client):
        spec = aloha_spec()
        first = client.submit(spec)[0]
        second = client.submit(spec)[0]
        assert semantic_records(first.study) == semantic_records(second.study)
        stats = client.stats()
        assert stats["executed"] == 1
        assert stats["cache_hits"] == 1

    def test_submit_many_returns_spec_order(self, client):
        specs = [aloha_spec(seed=SEED + i) for i in range(5)]
        outcomes = client.submit(specs)
        assert [o.hash for o in outcomes] == [s.spec_hash() for s in specs]
        assert all(o.ok for o in outcomes)

    def test_no_wait_submission_then_results(self, client):
        specs = [aloha_spec(seed=SEED + i) for i in range(3)]
        submitted = client.submit(specs, wait=False)
        assert {o.status for o in submitted} <= {"queued", "running"}
        outcomes = client.results([s.spec_hash() for s in specs])
        assert all(o.ok for o in outcomes)

    def test_status_reports_jobs_and_unknown_hashes(self, client):
        spec = aloha_spec()
        client.submit(spec)
        rows = client.status()
        assert any(r["hash"] == spec.spec_hash() for r in rows)
        missing = client.status(["beef" * 16])
        assert missing == [{"hash": "beef" * 16, "status": "unknown"}]


class TestDedupe:
    def test_concurrent_submits_execute_once(self, tmp_path):
        """Two submitters of the same spec attach to one execution.

        A single-worker server is first occupied by a blocker job, so the
        target spec is deterministically still queued when the second
        submission arrives and must attach rather than enqueue again.
        """
        with BackgroundServer(tmp_path / "store", workers=1) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            blocker = aloha_spec(seed=9000, horizon=4096, trials=6)
            target = aloha_spec(seed=9001)
            client.submit(blocker, wait=False)
            client.submit(target, wait=False)
            client.submit(target, wait=False)  # attaches to the queued job
            stats = client.stats()
            assert stats["deduped"] == 1
            first, second = (
                client.results([target.spec_hash()])[0],
                client.results([target.spec_hash()])[0],
            )
            assert first.ok and second.ok
            assert semantic_records(first.study) == semantic_records(second.study)
            stats = client.stats()
            assert stats["executed"] == 2  # blocker + target, not 3
            row = client.status([target.spec_hash()])[0]
            assert row["submitters"] == 2

    def test_cached_spec_never_enqueued(self, tmp_path):
        spec = aloha_spec()
        root = tmp_path / "store"
        with BackgroundServer(root, workers=2) as bg:
            ServeClient(*bg.address).submit(spec)
        with BackgroundServer(root, workers=2) as bg:
            client = ServeClient(*bg.address)
            ack_row = client.submit(spec, wait=False)[0]
            assert ack_row.status == "cached"
            stats = client.stats()
            assert stats["queue_depth"] == 0
            assert stats["jobs"]["queued"] == 0
            assert stats["executed"] == 0


class TestFailures:
    def test_injected_job_failure_surfaces_and_resubmit_recovers(self, client):
        spec = aloha_spec(seed=4242)
        with faults.injected(
            {
                "rules": [
                    {
                        "site": "sweep-point",
                        "hash": spec.spec_hash(),
                        "times": 1,
                    }
                ]
            }
        ):
            outcome = client.submit(spec)[0]
            assert outcome.status == "failed"
            assert not outcome.ok
            assert "FaultInjected" in outcome.error
            assert outcome.study is None
            # Resubmission re-queues the failed job; the fault budget is
            # spent, so this attempt succeeds.
            retried = client.submit(spec)[0]
            assert retried.ok
            assert retried.attempts == 2
            assert semantic_records(retried.study) == semantic_records(spec.run())
        stats = client.stats()
        assert stats["failed"] == 1
        assert stats["executed"] == 1

    def test_worker_crash_health_surfaces_in_job_status(self, client):
        """A FaultPlan worker crash inside a served job must show up as
        health_retries in the job's status row while the delivered results
        stay correct (the supervised pool retried the shard)."""
        spec = aloha_spec(seed=777).with_execution(workers=2)
        with faults.injected(
            {"rules": [{"site": "worker-crash", "shard": 1, "attempt": 0}]}
        ):
            outcome = client.submit(spec)[0]
        assert outcome.ok
        assert outcome.health["health_retries"] >= 1
        row = client.status([spec.spec_hash()])[0]
        assert row["health_retries"] >= 1
        assert row["health_failures"] >= 1
        serial = aloha_spec(seed=777)
        assert semantic_records(outcome.study) == semantic_records(serial.run())

    def test_raising_group_fails_its_job_and_dispatch_goes_on(
        self, tmp_path, monkeypatch
    ):
        """An exception out of a claimed group (here the store eviction
        that follows it) fails the group's job with that error, and the
        one dispatcher goes on to serve the next job."""
        evict = ShardedStudyStore.evict
        calls = []

        def evict_raising_once(store, budget_bytes):
            calls.append(budget_bytes)
            if len(calls) == 1:
                raise RuntimeError("eviction failed")
            return evict(store, budget_bytes)

        monkeypatch.setattr(ShardedStudyStore, "evict", evict_raising_once)
        with BackgroundServer(
            tmp_path / "store", workers=1, store_budget=0
        ) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            failed = client.submit(aloha_spec(seed=5001))[0]
            assert failed.status == "failed"
            assert failed.error == "RuntimeError: eviction failed"
            served = client.submit(aloha_spec(seed=5002))[0]
            assert served.ok
            stats = client.stats()
        assert stats["failed"] == 1
        assert stats["executed"] == 1
        assert calls == [0, 0]


class TestStoreTraffic:
    """A cold served job reads its store entry twice, at submit and at
    claim, and writes it once, whether it runs alone or fused."""

    @staticmethod
    def count_store_calls(monkeypatch):
        gets, puts = Counter(), Counter()
        get, put = ShardedStudyStore.get, ShardedStudyStore.put

        def counting_get(store, spec):
            gets[spec.spec_hash()] += 1
            return get(store, spec)

        def counting_put(store, spec, study):
            puts[spec.spec_hash()] += 1
            return put(store, spec, study)

        monkeypatch.setattr(ShardedStudyStore, "get", counting_get)
        monkeypatch.setattr(ShardedStudyStore, "put", counting_put)
        return gets, puts

    @staticmethod
    def record_fused_groups(monkeypatch):
        sizes = []
        run_group = fused_module.run_fused_group

        def recording_run_group(specs, *args, **kwargs):
            sizes.append(len(specs))
            return run_group(specs, *args, **kwargs)

        monkeypatch.setattr(fused_module, "run_fused_group", recording_run_group)
        return sizes

    def serve(self, tmp_path, specs):
        with BackgroundServer(tmp_path / "store", workers=1) as bg:
            return ServeClient(*bg.address, timeout=60.0).submit(specs)

    def test_cold_solo_job_reads_twice_and_writes_once(self, tmp_path, monkeypatch):
        gets, puts = self.count_store_calls(monkeypatch)
        spec = aloha_spec(seed=6001)
        outcome = self.serve(tmp_path, spec)[0]
        assert outcome.ok
        assert semantic_records(outcome.study) == semantic_records(spec.run())
        assert gets == {spec.spec_hash(): 2}
        assert puts == {spec.spec_hash(): 1}

    def test_cold_fused_pair_reads_twice_and_writes_once(
        self, tmp_path, monkeypatch
    ):
        gets, puts = self.count_store_calls(monkeypatch)
        groups = self.record_fused_groups(monkeypatch)
        pair = [cjz_spec(seed=6002), cjz_spec(seed=6003)]
        outcomes = self.serve(tmp_path, pair)
        assert groups == [2]
        for spec, outcome in zip(pair, outcomes):
            assert outcome.ok
            assert semantic_records(outcome.study) == semantic_records(spec.run())
        assert gets == {spec.spec_hash(): 2 for spec in pair}
        assert puts == {spec.spec_hash(): 1 for spec in pair}

    def test_failed_member_of_a_fused_group_is_never_stored(
        self, tmp_path, monkeypatch
    ):
        """A fault pinned to the middle job of a fused group fails that
        job alone: its siblings keep their fused results and are each
        written once, and the failed job is never written."""
        gets, puts = self.count_store_calls(monkeypatch)
        groups = self.record_fused_groups(monkeypatch)
        trio = [cjz_spec(seed=6004), cjz_spec(seed=6005), cjz_spec(seed=6006)]
        failing = trio[1].spec_hash()
        with faults.injected(
            {"rules": [{"site": "sweep-point", "hash": failing}]}
        ):
            outcomes = self.serve(tmp_path, trio)
        assert groups == [3]
        assert outcomes[1].status == "failed"
        assert "FaultInjected" in outcomes[1].error
        for index in (0, 2):
            assert outcomes[index].ok
            assert semantic_records(outcomes[index].study) == semantic_records(
                trio[index].run()
            )
        assert gets == {spec.spec_hash(): 2 for spec in trio}
        assert puts == {trio[0].spec_hash(): 1, trio[2].spec_hash(): 1}

    def test_pipeline_submit_is_refused_and_never_stored(
        self, tmp_path, monkeypatch
    ):
        """A served study is the store's summary record, which has no
        counters to reduce a pipeline over, so a submit carrying a pipeline
        spec is refused whole: no job of it is accepted, read or written."""
        gets, puts = self.count_store_calls(monkeypatch)
        plain = cjz_spec(seed=6008)
        spec = cjz_spec(seed=6007).with_pipeline(
            PipelineSpec(reducers=({"kind": "latency"},))
        )
        with BackgroundServer(tmp_path / "store", workers=1) as bg:
            client = ServeClient(*bg.address, timeout=60.0)
            with pytest.raises(ServeError, match="StudyPlan.run"):
                client.submit([plain, spec])
            assert client.stats()["submitted"] == 0
        assert gets == {}
        assert puts == {}


class TestFusableDrain:
    def test_queued_jobs_of_different_horizons_fuse_within_the_budget(self):
        """A queued job with a longer horizon joins the lead's group; the
        group's trials stay within the budget at the larger horizon, so a
        job that fits only the lead's own budget is left queued."""
        wide_budget = fusion_budget(4096)

        async def drain():
            server = SweepServer(None, workers=1)
            lead = server._submit_spec(cjz_spec(seed=1, trials=2), 0)
            wide = server._submit_spec(cjz_spec(seed=2, horizon=4096, trials=2), 0)
            server._submit_spec(cjz_spec(seed=3, trials=wide_budget - 3), 0)
            server._queue.get_nowait()  # the lead's own entry
            return lead, wide, server._drain_fusable(lead), server._queue.qsize()

        lead, wide, group, queued = asyncio.run(drain())
        assert lead.spec.horizon != wide.spec.horizon
        assert group == [wide]
        assert queued == 1
        assert lead.spec.trials + wide.spec.trials <= wide_budget


class TestEndToEndIdentity:
    def test_served_cjz_sweep_matches_serial_plan(self, tmp_path):
        """The acceptance criterion: a 32-point CJZ sweep through a
        3-worker / 3-shard server is point-for-point identical to the same
        plan run serially with a plain StudyStore."""
        sweep = Sweep(
            cjz_spec(),
            {
                "seed": [SEED + i for i in range(8)],
                "adversary.jamming.params.fraction": [0.0, 0.1, 0.25, 0.4],
            },
        )
        plan = StudyPlan.from_sweep(sweep)
        assert len(plan) == 32
        serial = plan.run(store=StudyStore(tmp_path / "local-store"))
        # The daemon opens the store as its ring.json describes.
        ShardedStudyStore(tmp_path / "served-store", shards=3)
        with BackgroundServer(tmp_path / "served-store", workers=3) as bg:
            client = ServeClient(*bg.address, timeout=120.0)
            served = client.run_plan(plan.specs, overrides=sweep.points())
        assert len(served) == 32
        for local, remote in zip(serial, served):
            assert not remote.failed
            assert remote.spec.spec_hash() == local.spec.spec_hash()
            assert semantic_records(remote.study) == semantic_records(local.study)

    def test_sweep_rows_render_identically(self, tmp_path):
        from repro.spec import sweep_rows

        sweep = Sweep(aloha_spec(), {"horizon": [256, 512]})
        plan = StudyPlan.from_sweep(sweep)
        serial_rows = sweep_rows(plan.run())
        with BackgroundServer(tmp_path / "store") as bg:
            client = ServeClient(*bg.address)
            served_rows = sweep_rows(
                client.run_plan(plan.specs, overrides=sweep.points())
            )
        assert [set(r) for r in served_rows] == [set(r) for r in serial_rows]
        skip = {"mean_wall_time_s", "mean_slots_per_s", "dispatch_seconds",
                "run_seconds"}
        for local, remote in zip(serial_rows, served_rows):
            for key in local:
                if key in skip:
                    continue
                assert remote[key] == local[key], key


class TestProtocol:
    def _raw(self, server, payload: bytes) -> list:
        conn = socket.create_connection(server.address, timeout=30.0)
        try:
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
            reader = conn.makefile("rb")
            return [decode_line(line) for line in reader if line.strip()]
        finally:
            conn.close()

    def test_invalid_json_line_answers_error(self, server):
        replies = self._raw(server, b"{not json}\n")
        assert replies[0]["ok"] is False
        assert "protocol line" in replies[0]["error"]

    def test_unknown_op_answers_error(self, server):
        replies = self._raw(server, encode_message({"op": "explode"}))
        assert replies[0]["ok"] is False
        assert "unknown op" in replies[0]["error"]

    def test_submit_without_specs_answers_error(self, server):
        replies = self._raw(server, encode_message({"op": "submit"}))
        assert replies[0]["ok"] is False

    def test_bad_spec_payload_answers_error(self, server):
        replies = self._raw(
            server, encode_message({"op": "submit", "specs": [{"horizon": -1}]})
        )
        assert replies[0]["ok"] is False
        assert "horizon" in replies[0]["error"]

    def test_error_leaves_connection_usable(self, server):
        payload = encode_message({"op": "explode"}) + encode_message({"op": "stats"})
        replies = self._raw(server, payload)
        assert replies[0]["ok"] is False
        assert replies[1]["ok"] is True
        assert replies[1]["op"] == "stats"

    @pytest.mark.parametrize(
        "message, names",
        [
            pytest.param(
                {"op": "submit", "spec": aloha_spec().to_dict()},
                "'specs'",
                id="single-spec-form",
            ),
            pytest.param(
                {
                    "op": "submit",
                    "sweep": {"base": aloha_spec().to_dict(), "axes": {"seed": [1]}},
                },
                "'specs'",
                id="sweep-form",
            ),
            pytest.param(
                {"op": "submit", "specs": [{"horizon": "abc"}]}, "'horizon'", id="int"
            ),
            pytest.param(
                {"op": "submit", "specs": [{"trials": [1]}]}, "'trials'", id="list"
            ),
            pytest.param(
                {"op": "submit", "specs": [{"seed": "x"}]}, "'seed'", id="seed"
            ),
            pytest.param(
                {"op": "submit", "specs": [{"workers": None}]}, "'workers'", id="null"
            ),
            pytest.param(
                {"op": "submit", "specs": [{"protocol": {"kind": "cjz", "params": 3}}]},
                "params",
                id="protocol-params",
            ),
            pytest.param(
                {
                    "op": "submit",
                    "specs": [{"adversary": {"kind": "lower-bound", "params": 3}}],
                },
                "params",
                id="adversary-params",
            ),
            pytest.param(
                {
                    "op": "submit",
                    "specs": [
                        {"adversary": {"arrivals": {"kind": "batch", "params": 3}}}
                    ],
                },
                "params",
                id="strategy-params",
            ),
            pytest.param(
                {
                    "op": "submit",
                    "specs": [
                        {
                            "pipeline": {
                                "reducers": [{"kind": "success-timeline", "params": 3}]
                            }
                        }
                    ],
                },
                "params",
                id="reducer-params",
            ),
            pytest.param(
                {"op": "submit", "specs": [{"stop_when_drained": "no"}]},
                "'stop_when_drained'",
                id="flag",
            ),
            pytest.param(
                {"op": "submit", "specs": [aloha_spec().to_dict()], "priority": "high"},
                "'priority'",
                id="priority",
            ),
            pytest.param(
                {"op": "status", "hashes": "abc"}, "'hashes'", id="status-hashes"
            ),
            pytest.param(
                {"op": "submit", "specs": [aloha_spec().to_dict()], "wait": "no"},
                "'wait'",
                id="submit-wait",
            ),
            pytest.param(
                {"op": "result", "hashes": ["abc"], "wait": "false"},
                "'wait'",
                id="result-wait",
            ),
        ],
    )
    def test_malformed_request_answers_error_on_a_usable_connection(
        self, server, message, names
    ):
        replies = self._raw(
            server, encode_message(message) + encode_message({"op": "stats"})
        )
        assert len(replies) == 2, replies
        assert replies[0]["ok"] is False
        assert names in replies[0]["error"]
        assert replies[1]["ok"] is True and replies[1]["op"] == "stats"
        assert replies[1]["submitted"] == 0

    def test_stats_include_store_breakdown(self, client):
        client.submit(aloha_spec())
        stats = client.stats()
        assert stats["store"]["entries"] == 1
        assert set(stats["store"]["shards"]) == {"shard-00", "shard-01"}


class TestClientErrors:
    def test_from_address_rejects_garbage(self):
        with pytest.raises(ServeError, match="host:port"):
            ServeClient.from_address("nonsense")
        client = ServeClient.from_address(":7421")
        assert client.address == ("127.0.0.1", 7421)

    def test_unreachable_server_raises_serve_error(self):
        client = ServeClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            client.stats()
        assert client.ping() is False

    def test_ping_true_against_live_server(self, client):
        assert client.ping() is True


class TestShutdown:
    def test_shutdown_request_stops_the_server(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as bg:
            client = ServeClient(*bg.address, timeout=10.0)
            client.shutdown()
            deadline = time.monotonic() + 10.0
            while client.ping() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not client.ping()
