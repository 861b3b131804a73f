"""Property tests: fused multi-study dispatch is invisible in the results.

The fusion contract: for any grid of compatible (or incompatible — the
planner simply declines those) StudySpecs, running the plan with
``fuse=True`` produces studies bit-identical to strict per-point dispatch —
same summaries, same per-node statistics, same per-slot counters — through
the local plan loop, through a multi-worker :class:`SweepServer`, and for
specs that would use the sharded parallel runner on their own.  Injected
``fused-group`` faults must degrade every member to per-point dispatch
without corrupting or losing a sibling point.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.sim.backends.fused import fusion_key, plan_fusion_groups
from repro.spec import StudyPlan, StudySpec, Sweep, sweep_rows
from repro.spec.store import result_record

#: Row fields that legitimately differ between dispatch modes (timing only).
TIMING_FIELDS = {
    "mean_wall_time_s",
    "mean_slots_per_s",
    "dispatch_seconds",
    "run_seconds",
}

PROTOCOLS = {
    "cjz": lambda value: {
        "kind": "cjz",
        "params": {"g": {"kind": "constant", "value": float(value)}},
    },
    "two-channel": lambda value: {
        "kind": "two-channel-no-jamming",
        "params": {"backoff_sends_per_stage": float(1 + int(value) % 3)},
    },
    "windowed": lambda value: {
        "kind": "binary-exponential-backoff",
        "params": {"initial_window": 2 ** (1 + int(value) % 3)},
    },
    "sawtooth": lambda value: {
        "kind": "sawtooth-backoff",
        "params": {"initial_window": 2 ** (2 + int(value) % 2)},
    },
    "aloha": lambda value: {
        "kind": "slotted-aloha",
        "params": {"probability": 0.5 / float(value)},
    },
    "probability-backoff": lambda value: {
        "kind": "probability-backoff",
        "params": {"scale": float(value) / 2.0},
    },
    "log-uniform-fixed": lambda value: {
        "kind": "log-uniform-fixed",
        "params": {"scale": float(value) / 3.0},
    },
}

ARRIVALS = {
    "batch": {"kind": "batch", "params": {"count": 8}},
    "bursty": {"kind": "bursty", "params": {"burst_size": 5, "period": 30}},
}

JAMMING = {
    "none": {"kind": "no-jamming", "params": {}},
    "reactive": {"kind": "reactive", "params": {"fraction": 0.25, "burst": 2}},
}


def _spec(protocol, param, arrivals, jamming, horizon, trials, seed, **extra):
    data = {
        "protocol": PROTOCOLS[protocol](param),
        "adversary": {
            "kind": "composed",
            "arrivals": ARRIVALS[arrivals],
            "jamming": JAMMING[jamming],
        },
        "horizon": horizon,
        "trials": trials,
        "seed": seed,
        "backend": "lockstep",
    }
    data.update(extra)
    return StudySpec.from_dict(data)


def _assert_studies_identical(fused_results, serial_results):
    assert len(fused_results) == len(serial_results)
    for fused, serial in zip(fused_results, serial_results):
        assert fused.failed == serial.failed
        if fused.failed:
            continue
        for x, y in zip(fused.study.results, serial.study.results):
            assert x.summary == y.summary
            assert x.node_stats == y.node_stats
            assert np.array_equal(x.counters.active, y.counters.active)
            assert np.array_equal(x.counters.arrivals, y.counters.arrivals)
            assert np.array_equal(x.counters.jammed, y.counters.jammed)
            assert np.array_equal(x.counters.successes, y.counters.successes)


@st.composite
def mixed_grids(draw):
    """A plan mixing protocol families, params, seeds and adversaries."""
    horizon = draw(st.integers(min_value=80, max_value=220))
    trials = draw(st.integers(min_value=2, max_value=4))
    arrivals = draw(st.sampled_from(sorted(ARRIVALS)))
    jamming = draw(st.sampled_from(sorted(JAMMING)))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**16),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    specs = []
    for protocol in draw(
        st.lists(st.sampled_from(sorted(PROTOCOLS)), min_size=1, max_size=3, unique=True)
    ):
        for param in draw(
            st.lists(
                st.integers(min_value=2, max_value=6),
                min_size=1,
                max_size=2,
                unique=True,
            )
        ):
            for seed in seeds:
                specs.append(
                    _spec(protocol, param, arrivals, jamming, horizon, trials, seed)
                )
    return specs


@given(mixed_grids())
@settings(max_examples=16, deadline=None)
def test_fused_plan_identical_to_per_point(specs):
    fused = StudyPlan(specs).run(fuse=True)
    serial = StudyPlan(specs).run(fuse=False)
    _assert_studies_identical(fused, serial)


@given(
    st.sampled_from(["aloha", "probability-backoff", "log-uniform-fixed"]),
    st.sampled_from(sorted(ARRIVALS)),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_age_profile_groups_identical_to_reference(
    protocol, arrivals, seed, drained
):
    """Heterogeneous age-profile groups against the reactive jammer (the
    composite program over per-member tables) reproduce the reference
    kernel point by point, early stops included."""
    specs = [
        _spec(
            protocol, param, arrivals, "reactive", 160, 2, seed + param,
            stop_when_drained=drained,
        )
        for param in (2, 3, 5)
    ]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    fused = StudyPlan(specs).run(fuse=True)
    reference = StudyPlan(
        [spec.with_execution(backend="reference") for spec in specs]
    ).run(fuse=False)
    _assert_studies_identical(fused, reference)


@given(
    st.sampled_from(["cjz", "windowed", "aloha"]),
    st.sampled_from(["no-jamming", "random-fraction", "reactive"]),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_groups_with_idle_members_identical_to_reference(
    protocol, jamming, seed, drained
):
    """A heterogeneous group whose members arrive in different stretches:
    one member idles while another is busy, and the loop jumps the
    stretches in which every member idles."""
    params = {"no-jamming": {}, "random-fraction": {"fraction": 0.25}}
    jammer = {
        "kind": jamming,
        "params": params.get(jamming, {"fraction": 0.25, "burst": 2}),
    }

    def adversary(slot):
        return {
            "kind": "composed",
            "arrivals": {"kind": "batch", "params": {"count": 6, "slot": slot}},
            "jamming": jammer,
        }

    specs = [
        _spec(
            protocol, param, "batch", "none", 480, 2, seed + param,
            adversary=adversary(slot), stop_when_drained=drained,
        )
        for param, slot in ((2, 10), (3, 260), (5, 260))
    ]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    fused = StudyPlan(specs).run(fuse=True)
    reference = StudyPlan(
        [spec.with_execution(backend="reference") for spec in specs]
    ).run(fuse=False)
    _assert_studies_identical(fused, reference)


def test_batched_study_points_stay_unfused():
    """Points the batched study kernel takes on their own never fuse under
    ``auto``; an explicit lockstep pin and an adaptive jammer still do."""

    def spec(jamming, backend):
        return _spec("aloha", 2, "batch", jamming, 128, 2, 7, backend=backend)

    assert fusion_key(spec("none", "auto")) is None
    assert fusion_key(spec("none", "batched-study")) is None
    assert fusion_key(spec("none", "lockstep")) is not None
    assert fusion_key(spec("reactive", "auto")) is not None


@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=80, max_value=200),
)
@settings(max_examples=6, deadline=None)
def test_fused_plan_identical_for_parallel_worker_specs(seed, horizon):
    """Specs that would run through the workers=4 sharded pool on their own
    still fuse (fusion replaces the whole dispatch), with identical results
    and identical sweep rows apart from timing and worker provenance."""
    specs = [
        _spec("cjz", 4, "batch", "none", horizon, 4, seed + i, workers=4)
        for i in range(4)
    ]
    fused = StudyPlan(specs).run(fuse=True)
    serial = StudyPlan(specs).run(fuse=False)
    _assert_studies_identical(fused, serial)
    drop = TIMING_FIELDS | {"workers"}  # fused runs execute single-process
    fused_rows = [
        {k: v for k, v in row.items() if k not in drop}
        for row in sweep_rows(fused)
    ]
    serial_rows = [
        {k: v for k, v in row.items() if k not in drop}
        for row in sweep_rows(serial)
    ]
    assert fused_rows == serial_rows


@given(
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from(sorted(JAMMING)),
)
@settings(max_examples=4, deadline=None)
def test_fused_grid_through_sweep_server(seed, jamming):
    """An 8-point grid served by a 2-worker fused server returns payloads
    identical to a local per-point run (and stores every point under its
    own spec hash)."""
    from repro.serve import BackgroundServer, ServeClient

    specs = [
        _spec("cjz", 4, "batch", jamming, 160, 2, seed + i) for i in range(8)
    ]
    serial = StudyPlan(specs).run(fuse=False)

    def wire(result):
        record = result_record(result)
        record.pop("wall_time_seconds", None)
        return record

    with tempfile.TemporaryDirectory(prefix="repro-fused-serve-") as root:
        with BackgroundServer(Path(root), shards=2, workers=2) as server:
            client = ServeClient(*server.address)
            outcomes = {o.hash: o for o in client.submit(specs, wait=True)}
            assert server.server.stats.executed == len(specs)
            for spec, res in zip(specs, serial):
                outcome = outcomes[spec.spec_hash()]
                assert outcome.ok, outcome.error
                assert [wire(x) for x in res.study.results] == [
                    wire(y) for y in outcome.study.results
                ]


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_fused_group_fault_degrades_without_corrupting_siblings(seed):
    """A crash inside the fused group leaves every member to run per-point;
    results still come out identical to the unfused plan."""
    specs = [
        _spec("cjz", 4, "batch", "none", 120, 2, seed + i) for i in range(4)
    ]
    serial = StudyPlan(specs).run(fuse=False)
    with faults.injected({"rules": [{"site": "fused-group"}]}):
        fused = StudyPlan(specs).run(fuse=True)
    _assert_studies_identical(fused, serial)
    assert not any(r.failed for r in fused)


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_sweep_point_faults_with_fusion_on(seed):
    """Per-point sweep faults keep their exact semantics under fusion: the
    faulted point fails (its prefused study is discarded unstored), the
    siblings keep their fused results, and a retry succeeds."""
    specs = [
        _spec("cjz", 4, "batch", "none", 120, 2, seed + i) for i in range(4)
    ]
    serial = StudyPlan(specs).run(fuse=False)
    plan = {"rules": [{"site": "sweep-point", "point": 1, "attempt": 0}]}
    with faults.injected(plan):
        skipped = StudyPlan(specs).run(fuse=True, on_error="skip")
        retried = StudyPlan(specs).run(fuse=True, on_error="retry", retries=1)
    assert skipped[1].failed and "FaultInjected" in skipped[1].error
    for index in (0, 2, 3):
        assert not skipped[index].failed
    _assert_studies_identical(
        [r for i, r in enumerate(skipped) if i != 1],
        [r for i, r in enumerate(serial) if i != 1],
    )
    _assert_studies_identical(retried, serial)
