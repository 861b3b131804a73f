"""Columnar results: node columns, and counters derived on first read.

The lockstep tiers hand each result its node columns and its own copy of
its jam flags; the per-slot prefix counters are derived from those only
when something reads them.  These tests pin the derived columns to the
reference kernel's, which accumulates its own slot by slot, in the cases
the derivation has to get right, and check that a sweep which reads only
summaries, latencies and energy never derives them.
"""

import numpy as np
import pytest

from repro.adversary import ScheduleAdversary
from repro.core import cjz_factory
from repro.metrics.pipeline import (
    EnergyReducer,
    LatencyReducer,
    MetricPipeline,
    ScalarSummaryReducer,
    SuccessTimelineReducer,
)
from repro.sim import run_trials
from repro.sim.backends import compiled, lockstep
from repro.sim.backends.fused import plan_fusion_groups, run_fused_group
from repro.sim.results import NodeColumns, PrefixCounters
from repro.spec import PipelineSpec, StudyPlan, StudySpec, sweep_rows
from repro.spec.store import StudyStore
from repro.types import NodeStats

COLUMNS = ("active", "arrivals", "jammed", "successes")

RANDOM_FRACTION = {"kind": "random-fraction", "params": {"fraction": 0.25}}
REACTIVE = {"kind": "reactive", "params": {"fraction": 0.25, "burst": 2}}


def _spec(jamming, seed, horizon=200, **extra):
    data = {
        "protocol": {"kind": "cjz", "params": {}},
        "adversary": {
            "kind": "composed",
            "arrivals": {
                "kind": "uniform-random",
                "params": {"total": 8, "start": 1, "end": 60},
            },
            "jamming": jamming,
        },
        "horizon": horizon,
        "trials": 3,
        "seed": seed,
        "backend": "lockstep",
    }
    data.update(extra)
    return StudySpec.from_dict(data)


def _reference(specs):
    return [
        point.study
        for point in StudyPlan(
            [spec.with_execution(backend="reference") for spec in specs]
        ).run(fuse=False)
    ]


def _assert_same_outcomes(results, reference):
    assert len(results) == len(reference)
    for mine, theirs in zip(results, reference):
        assert mine.summary == theirs.summary
        assert mine.node_stats == theirs.node_stats
        for name in COLUMNS:
            assert np.array_equal(
                getattr(mine.counters, name), getattr(theirs.counters, name)
            )


@pytest.fixture
def derivations(monkeypatch):
    """The run lengths of every counter derivation, in call order."""
    calls = []
    real = PrefixCounters.derive.__func__

    def derive(cls, nodes, jammed, slots):
        calls.append(slots)
        return real(cls, nodes, jammed, slots)

    monkeypatch.setattr(PrefixCounters, "derive", classmethod(derive))
    return calls


@pytest.fixture
def emitted(monkeypatch):
    """The arguments of every lockstep emission call, on both tiers."""
    calls = []
    real = lockstep.emit_lockstep_results

    def spy(names, capacity, node_count, arrival_col, *rest):
        calls.append(
            {
                "capacity": capacity,
                "node_count": node_count.copy(),
                "arrival_col": arrival_col.copy(),
                "simulated": rest[2].copy(),
                "members": rest[-1],
            }
        )
        return real(names, capacity, node_count, arrival_col, *rest)

    monkeypatch.setattr(lockstep, "emit_lockstep_results", spy)
    monkeypatch.setattr(compiled, "emit_lockstep_results", spy)
    return calls


class _EarlyExhaustedSchedule(ScheduleAdversary):
    """Schedules a late batch but reports its arrivals over from the start,
    so a drained trial stops before the batch arrives."""

    def arrivals_exhausted(self, slot: int) -> bool:
        return True


class TestNodeColumns:
    def test_reads_as_the_mapping_it_replaced(self):
        nodes = NodeColumns([1, 1, 4], [3, 0, 9], [2, 5, 1])
        assert len(nodes) == 3 and list(nodes) == [0, 1, 2]
        assert nodes[1] == NodeStats(1, arrival_slot=1, broadcast_count=5)
        assert nodes == {i: nodes[i] for i in range(3)}
        assert 3 not in nodes and -1 not in nodes and "0" not in nodes
        assert nodes.latencies().tolist() == [3, 6]
        assert NodeColumns.from_stats(dict(nodes.items())) == nodes

    def test_from_stats_rejects_ids_out_of_order(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            NodeColumns.from_stats({1: NodeStats(1, arrival_slot=1)})


class TestDerivedCounters:
    def test_sweep_with_a_store_derives_no_counters(self, tmp_path, derivations):
        """A fused lockstep grid run into a store, rendered as sweep rows,
        reads no per-slot column; reading them afterwards derives each
        trial's once, equal to the reference kernel's."""
        specs = [
            _spec(jamming, seed)
            for jamming in (RANDOM_FRACTION, REACTIVE)
            for seed in (1, 2)
        ]
        assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [4]
        plan = StudyPlan(specs).run(store=StudyStore(tmp_path))
        rows = sweep_rows(plan)
        assert [row["status"] for row in rows] == ["ok"] * len(specs)
        assert not any(point.cached for point in plan)
        assert derivations == []
        results = [r for point in plan for r in point.study.results]
        assert all(r.backend == "lockstep" for r in results)
        assert all(r.jam_flags is not None for r in results)
        for point, reference in zip(plan, _reference(specs)):
            _assert_same_outcomes(point.study.results, reference.results)
        assert derivations == [r.horizon for r in results]
        assert all(r.jam_flags is None for r in results)

    def test_pipeline_derives_counters_only_for_reducers_that_read_them(
        self, derivations
    ):
        """Latency, energy and scalar reducers read node columns and
        summaries only, so a pipeline of them derives no counters; one
        counter-reading reducer makes every trial derive its own.  The
        outputs equal the reference kernel's."""
        outcomes = [
            EnergyReducer(),
            LatencyReducer(),
            ScalarSummaryReducer("successes"),
        ]
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ScheduleAdversary({1: 6, 40: 4}),
            horizon=256,
            trials=6,
            seed=8,
        )

        def study(backend, reducers):
            return run_trials(
                backend=backend, pipeline=MetricPipeline(reducers), **kwargs
            )

        lean = study("lockstep", outcomes)
        assert derivations == []
        assert all(r.cached_counters is None for r in lean.results)
        assert lean.metrics() == study("reference", outcomes).metrics()
        timeline = [*outcomes, SuccessTimelineReducer()]
        full = study("lockstep", timeline)
        assert derivations == [256] * 6
        assert full.metrics() == study("reference", timeline).metrics()

    @pytest.mark.parametrize("tier", ["lockstep", "lockstep-jit"])
    def test_drained_trial_scheduled_past_its_stop(
        self, monkeypatch, tier, derivations, emitted
    ):
        """Rows held for a batch scheduled after a drained trial's stop
        are no nodes of its result, and no arrivals of its counters."""
        if tier == "lockstep-jit":
            monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
            monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=lambda: _EarlyExhaustedSchedule(
                    {1: 3, 150: 2}, jammed_slots=[2, 5]
                ),
                horizon=200,
                trials=3,
                seed=4,
                stop_when_drained=True,
                backend=backend,
            )

        got = study(tier)
        assert {r.backend for r in got} == {tier}
        (call,) = emitted
        assert call["capacity"] == 5
        assert call["node_count"].tolist() == [3, 3, 3]
        assert (call["simulated"] < 150).all()
        if tier == "lockstep":
            # The numpy kernel arrives every scheduled node up front.
            rows = call["arrival_col"].reshape(3, 5)
            assert (rows[:, 3:] == 150).all()
        _assert_same_outcomes(got.results, study("reference").results)
        assert len(derivations) == 3

    def test_mixed_horizon_member(self, derivations, emitted):
        """A member stopping at its own, shorter horizon inside a run
        bound at the longest derives columns of its own length."""
        specs = [
            _spec(RANDOM_FRACTION, seed, horizon)
            for seed, horizon in ((5, 70), (6, 180))
        ]
        studies = run_fused_group(specs)
        (call,) = emitted
        assert call["members"] == [3, 3]
        assert call["simulated"].tolist() == [70] * 3 + [180] * 3
        for study, reference in zip(studies, _reference(specs)):
            _assert_same_outcomes(study.results, reference.results)
        assert derivations == [70] * 3 + [180] * 3

    def test_trial_without_arrivals(self, derivations):
        """No node rows: the counters count only the jammed slots."""

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=lambda: ScheduleAdversary(
                    {}, jammed_slots=[3, 4, 9]
                ),
                horizon=20,
                trials=2,
                seed=1,
                backend=backend,
            )

        got = study("lockstep")
        assert all(len(r.node_stats) == 0 for r in got)
        _assert_same_outcomes(got.results, study("reference").results)
        assert [r.counters.jammed[-1] for r in got] == [3, 3]
        assert len(derivations) == 2

    def test_streamed_member_releases_its_flags(self, derivations):
        """A streamed member's pipeline reads the derived counters, then
        the release drops them and the flags; its sibling derives
        nothing until read."""
        pipeline = PipelineSpec.of(SuccessTimelineReducer())
        specs = [
            _spec(REACTIVE, 7, pipeline=pipeline, streaming=True),
            _spec(REACTIVE, 8),
        ]
        streamed, sibling = run_fused_group(specs)
        assert derivations == [r.horizon for r in streamed.results]
        for result in streamed.results:
            assert result.counters is None and result.jam_flags is None
            assert result.memory_bytes() == 0
        assert all(r.jam_flags is not None for r in sibling.results)
        reference = _reference(specs)
        assert streamed.metrics() == reference[0].metrics()
        assert [r.summary for r in streamed.results] == [
            r.summary for r in reference[0].results
        ]
        _assert_same_outcomes(sibling.results, reference[1].results)

