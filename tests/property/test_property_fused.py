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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.adversary.columnar import ScheduledLockstepDriver
from repro.metrics import EnergyReducer
from repro.rng import TrialSeedBatch
from repro.sim.backends.compiled import _lower_driver, interpreter_mode
from repro.sim.backends.fused import (
    _CompositeLockstepProgram,
    _merge_drivers,
    fusion_key,
    plan_fusion_groups,
    run_fused_group,
)
from repro.sim.backends.lockstep import _LockstepRun, build_lockstep_driver
from repro.sim.backends.studysupport import SeedPlan
from repro.sim.engine import SimulatorConfig
from repro.spec import (
    PipelineSpec,
    StudyPlan,
    StudySpec,
    StudyStore,
    Sweep,
    sweep_rows,
)
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
        "params": {"g": {"kind": "constant", "params": {"value": float(value)}}},
    },
    # Stages draw up to 20 send slots each, 2**k from 2**k at first.
    "cjz-large-budget": lambda value: {
        "kind": "cjz",
        "params": {
            "g": {"kind": "constant", "params": {"value": float(value)}},
            "a": 0.05,
        },
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
    "uniform-random": {
        "kind": "uniform-random",
        "params": {"total": 8, "start": 1, "end": 60},
    },
}

JAMMING = {
    "none": {"kind": "no-jamming", "params": {}},
    "reactive": {"kind": "reactive", "params": {"fraction": 0.25, "burst": 2}},
}

#: An oblivious jammer with a nonzero static jam schedule.
RANDOM_FRACTION = {"kind": "random-fraction", "params": {"fraction": 0.25}}


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
        if not fused.failed:
            _assert_trials_identical(fused.study, serial.study)


def _assert_trials_identical(fused, serial):
    """Per-trial equality of two studies; streamed studies hold no counters."""
    assert len(fused.results) == len(serial.results)
    for x, y in zip(fused.results, serial.results):
        assert x.summary == y.summary
        assert x.node_stats == y.node_stats
        assert (x.counters is None) == (y.counters is None)
        if x.counters is not None:
            assert np.array_equal(x.counters.active, y.counters.active)
            assert np.array_equal(x.counters.arrivals, y.counters.arrivals)
            assert np.array_equal(x.counters.jammed, y.counters.jammed)
            assert np.array_equal(x.counters.successes, y.counters.successes)
    assert fused.metrics() == serial.metrics()


def _reference(specs):
    return StudyPlan(
        [spec.with_execution(backend="reference") for spec in specs]
    ).run(fuse=False)


def _run_composite(specs):
    """Run a mixed-parameter group through ``run_fused_group`` directly (the
    planner splits it), asserting the composite program stepped it."""
    for group in plan_fusion_groups(list(enumerate(specs))):
        assert len({spec.protocol for _, spec in group}) == 1
    real_step = _CompositeLockstepProgram.step
    with mock.patch.object(
        _CompositeLockstepProgram, "step", autospec=True, side_effect=real_step
    ) as step:
        studies = run_fused_group(specs)
    assert step.called
    return studies


@st.composite
def mixed_grids(draw):
    """A plan mixing protocol families, params, seeds and adversaries; the
    jamming is drawn per spec, so a group may mix oblivious and reactive
    members."""
    horizon = draw(st.integers(min_value=80, max_value=220))
    trials = draw(st.integers(min_value=2, max_value=4))
    arrivals = draw(st.sampled_from(sorted(ARRIVALS)))
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
                jamming = draw(st.sampled_from(sorted(JAMMING)))
                specs.append(
                    _spec(protocol, param, arrivals, jamming, horizon, trials, seed)
                )
    return specs


def test_fused_plan_identical_to_per_point():
    """Fused plans equal per-point dispatch, and some drawn plan fuses
    oblivious and reactive members into one group."""
    mixed_family_groups = []

    @given(mixed_grids())
    @settings(max_examples=16, deadline=None)
    def check(specs):
        for group in plan_fusion_groups(list(enumerate(specs))):
            if len({spec.adversary.jamming.kind for _, spec in group}) > 1:
                mixed_family_groups.append(group)
        fused = StudyPlan(specs).run(fuse=True)
        serial = StudyPlan(specs).run(fuse=False)
        _assert_studies_identical(fused, serial)

    check()
    assert mixed_family_groups


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
    for fused, reference in zip(_run_composite(specs), _reference(specs)):
        _assert_trials_identical(fused, reference.study)


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
    for fused, reference in zip(_run_composite(specs), _reference(specs)):
        _assert_trials_identical(fused, reference.study)


@given(
    st.sampled_from(sorted(JAMMING)),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_large_budget_cjz_in_a_heterogeneous_group_identical_to_reference(
    jamming, seed, drained
):
    """A large-budget CJZ member, whose stages draw many duplicate send
    slots, fused with default-budget members: the composite program keeps
    each member's stage counts and plan width, point by point identical to
    the reference kernel."""
    specs = [
        _spec(
            protocol, param, "batch", jamming, 160, 2, seed + param,
            stop_when_drained=drained,
        )
        for protocol, param in (
            ("cjz", 2), ("cjz-large-budget", 4), ("cjz", 5)
        )
    ]
    for fused, reference in zip(_run_composite(specs), _reference(specs)):
        _assert_trials_identical(fused, reference.study)


@given(
    st.sampled_from(sorted(PROTOCOLS)),
    st.sampled_from(sorted(JAMMING)),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_mixed_horizon_plans_identical_to_per_point_and_reference(
    protocol, jamming, seed, drained
):
    """One protocol spec over three horizons fuses into one run in which
    every trial stops at its own horizon (or drains), on a program bound at
    the largest; a pipeline point and a streaming point reduce, and
    release, only their own trials."""
    extras = (
        {},
        {"pipeline": PipelineSpec.of(EnergyReducer())},
        {"streaming": True},
    )
    specs = [
        _spec(
            protocol, 4, "uniform-random", jamming, horizon, 2, seed + i,
            stop_when_drained=drained, **extra,
        )
        for i, (horizon, extra) in enumerate(zip((70, 150, 230), extras))
    ]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    fused = StudyPlan(specs).run(fuse=True)
    _assert_studies_identical(fused, StudyPlan(specs).run(fuse=False))
    _assert_studies_identical(fused, _reference(specs))
    assert fused[1].study.metrics() is not None
    assert all(r.counters is None for r in fused[2].study.results)


@pytest.mark.parametrize("jamming", sorted(JAMMING))
def test_trials_stop_at_their_own_horizons(jamming):
    """Member A's horizon ends while its trials still hold live rows;
    member B drains its batch early and idles until member C's late batch,
    so the idle skip jumps past B's horizon, which stops B's trials there."""

    def member(horizon, count, slot, seed):
        adversary = {
            "kind": "composed",
            "arrivals": {"kind": "batch", "params": {"count": count, "slot": slot}},
            "jamming": JAMMING[jamming],
        }
        return _spec("cjz", 4, "batch", jamming, horizon, 2, seed, adversary=adversary)

    specs = [member(40, 8, 30, 1), member(100, 2, 1, 2), member(320, 3, 260, 3)]
    stops = []  # (slot, horizons of the trials stopping, their live rows)
    real_stop = _LockstepRun._stop_trials

    def stop(run, slot):
        if slot >= run._next_end:
            ending = (run._trial_active & (run._simulated <= slot)).nonzero()[0]
            live = np.isin(run._active_trials, ending)
            stops.append(
                (slot, run._simulated[ending].tolist(), np.count_nonzero(live))
            )
        return real_stop(run, slot)

    with mock.patch.object(_LockstepRun, "_stop_trials", stop):
        fused = StudyPlan(specs).run(fuse=True)
    _assert_studies_identical(fused, StudyPlan(specs).run(fuse=False))
    _assert_studies_identical(fused, _reference(specs))
    assert any(
        slot == 40 and horizons == [40, 40] and live
        for slot, horizons, live in stops
    )
    assert any(slot > 100 and horizons == [100, 100] for slot, horizons, _ in stops)


def test_fusion_key_drops_the_horizon_but_not_the_parameters():
    short = _spec("cjz", 4, "batch", "none", 128, 2, 1)
    assert fusion_key(short) == fusion_key(short.with_overrides({"horizon": 512}))
    other = _spec("cjz-large-budget", 4, "batch", "none", 128, 2, 1)
    assert fusion_key(short) != fusion_key(other)


def test_fusion_key_keeps_the_horizon_when_the_compiled_tier_could_run(
    monkeypatch,
):
    """The compiled tier runs one horizon, so groups it could take keep it."""
    monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
    monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
    short = _spec("cjz", 4, "batch", "none", 128, 2, 1, backend="auto")
    assert fusion_key(short) is not None
    assert fusion_key(short) != fusion_key(short.with_overrides({"horizon": 512}))


def _columns(result):
    """Every column a result holds: its counters and its node columns."""
    counters, nodes = result.counters, result.node_stats
    return [
        counters.active,
        counters.arrivals,
        counters.jammed,
        counters.successes,
        nodes.arrival,
        nodes.success,
        nodes.broadcasts,
    ]


def _assert_members_share_no_memory(studies):
    """No column of one member's results shares memory with another's,
    down to the arrays they are views of."""

    def owner(column):
        return column if column.base is None else column.base

    columns = [
        [owner(column) for result in study.results for column in _columns(result)]
        for study in studies
    ]
    for m, mine in enumerate(columns):
        for theirs in columns[m + 1 :]:
            for x in mine:
                assert not any(np.shares_memory(x, y) for y in theirs)


def test_mixed_horizon_members_keep_only_their_own_columns():
    specs = [
        _spec("cjz", 4, "batch", "none", horizon, 2, 9) for horizon in (64, 256)
    ]
    studies = run_fused_group(specs)
    for spec, study in zip(specs, studies):
        for result in study.results:
            for counter in _columns(result)[:4]:
                assert counter.shape == (spec.horizon + 1,)
    _assert_members_share_no_memory(studies)


def test_batched_study_points_stay_unfused():
    """Points pinned to the batched study kernel never fuse.  Under
    ``auto`` the same age-profile points fuse, oblivious and reactive
    jamming alike, and the fused lockstep run equals the pinned
    batched-study runs and the reference kernel."""

    def spec(jamming, backend, seed=7):
        return _spec("aloha", 2, "batch", jamming, 128, 2, seed, backend=backend)

    assert fusion_key(spec("none", "batched-study")) is None
    assert fusion_key(spec("none", "lockstep")) is not None
    assert fusion_key(spec("none", "auto")) == fusion_key(spec("reactive", "auto"))
    specs = [spec("none", "auto", seed) for seed in (7, 8, 9)]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    fused = StudyPlan(specs).run(fuse=True)
    pinned = StudyPlan(
        [s.with_execution(backend="batched-study") for s in specs]
    ).run(fuse=True)
    assert {r.backend for p in fused for r in p.study.results} == {"lockstep"}
    assert {r.backend for p in pinned for r in p.study.results} == {
        "batched-study"
    }
    _assert_studies_identical(fused, pinned)
    _assert_studies_identical(fused, _reference(specs))


def _batch_member(jamming, horizon, count, slot, seed, **extra):
    """A CJZ point whose ``count`` nodes arrive together at ``slot``."""
    adversary = {
        "kind": "composed",
        "arrivals": {"kind": "batch", "params": {"count": count, "slot": slot}},
        "jamming": jamming,
    }
    return _spec(
        "cjz", 4, "batch", "none", horizon, 2, seed, adversary=adversary, **extra
    )


@pytest.mark.parametrize("drained", [False, True], ids=["full", "drained"])
def test_oblivious_and_reactive_members_fuse_into_one_run(drained):
    """Random-fraction and reactive members of one protocol and mixed
    horizons form one group whose members each equal their solo run and
    the reference kernel.  The reactive member's nodes leave long before
    the oblivious members' batches arrive.  Running every slot, its last
    success leaves a burst pending while every member idles, so the idle
    skip steps slot by slot; under ``stop_when_drained`` its drained trials
    stop instead (a running trial can hold a burst only with live nodes or
    while it waits for arrivals, and both step every slot), so the skip
    jumps straight to the next batch."""
    reactive = {"kind": "reactive", "params": {"fraction": 0.5, "burst": 40}}
    specs = [
        _batch_member(RANDOM_FRACTION, 260, 4, 200, 1, stop_when_drained=drained),
        _batch_member(reactive, 400, 3, 1, 2, stop_when_drained=drained),
        _batch_member(RANDOM_FRACTION, 330, 4, 300, 3, stop_when_drained=drained),
    ]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    skips = []  # (slot, resume, a running trial holds a pending burst)
    real_skip = ScheduledLockstepDriver.skip_idle

    def skip_idle(driver, slot, trial_active, jam_m):
        resume = real_skip(driver, slot, trial_active, jam_m)
        pending = bool(np.count_nonzero(driver._pending[trial_active]))
        skips.append((slot, resume, pending))
        return resume

    with mock.patch.object(ScheduledLockstepDriver, "skip_idle", skip_idle):
        fused = StudyPlan(specs).run(fuse=True)
    _assert_studies_identical(fused, StudyPlan(specs).run(fuse=False))
    _assert_studies_identical(fused, _reference(specs))
    reactive_end = max(r.summary.total_slots for r in fused[1].study.results)
    if drained:
        assert reactive_end < 200
        assert not any(pending for _, _, pending in skips)
        assert any(slot > reactive_end and resume == 200 for slot, resume, _ in skips)
    else:
        assert any(
            pending and resume == slot and slot < 200
            for slot, resume, pending in skips
        )
        assert any(resume > slot for slot, resume, _ in skips)


def test_fused_members_share_no_counter_memory(monkeypatch):
    """Each member is emitted from its own trial slice, so freeing one
    member's results frees its columns: no counter or node column shares
    memory with another member's, on the numpy tier and on the compiled
    tier (its interpreter's python form, which an ``auto`` group of one
    family and horizon takes)."""
    numpy_specs = [
        _spec("cjz", 4, "batch", jamming, 128, 2, seed)
        for seed, jamming in ((1, "none"), (2, "reactive"), (3, "none"))
    ]
    monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
    monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
    auto_specs = [
        _spec("cjz", 4, "uniform-random", "none", 96, 2, seed, backend="auto")
        for seed in (1, 2, 3)
    ]
    for specs, tier in ((numpy_specs, "lockstep"), (auto_specs, "lockstep-jit")):
        studies = run_fused_group(specs)
        assert {r.backend for study in studies for r in study.results} == {tier}
        _assert_members_share_no_memory(studies)


def _scheduled_driver(jamming, horizon=96, seed=5):
    spec = _spec("cjz", 4, "uniform-random", "none", horizon, 2, seed)
    spec = spec.with_overrides({"adversary.jamming": jamming})
    plan = SeedPlan.build(TrialSeedBatch(spec.seed, spec.trials))
    config = SimulatorConfig(horizon=horizon)
    return build_lockstep_driver(spec.adversary.factory(horizon), config, plan)


def test_compiled_tier_keeps_oblivious_and_reactive_apart(monkeypatch):
    """Where the compiled tier could take a group, oblivious and reactive
    points key apart, since the interpreter lowers a static jam schedule
    (mode 0) and a reactive jammer (mode 1) separately; a scheduled driver
    mixing both lowers to neither and demotes."""
    monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
    monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
    oblivious = _spec("cjz", 4, "batch", "none", 128, 2, 1, backend="auto")
    reactive = _spec("cjz", 4, "batch", "reactive", 128, 2, 1, backend="auto")
    assert None not in (fusion_key(oblivious), fusion_key(reactive))
    assert fusion_key(oblivious) != fusion_key(reactive)
    monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
    assert fusion_key(oblivious) == fusion_key(reactive)

    config = SimulatorConfig(horizon=96)
    static = _scheduled_driver(RANDOM_FRACTION)
    bursts = _scheduled_driver(JAMMING["reactive"])
    quiet = _scheduled_driver(JAMMING["none"])
    assert type(static) is type(bursts) is ScheduledLockstepDriver
    assert static._jammed.any() and bursts._burst.all()
    assert _lower_driver(static, config, 96, 2)[0] == 0
    assert _lower_driver(bursts, config, 96, 2)[0] == 1
    assert _lower_driver(_merge_drivers([static, bursts], 96), config, 96, 4) is None
    # Without a static jam, oblivious trials are reactive ones of burst 0.
    assert _lower_driver(_merge_drivers([quiet, bursts], 96), config, 96, 4)[0] == 1


@pytest.mark.parametrize("force_python", [False, True], ids=["env", "python"])
@pytest.mark.parametrize("jamming", ["random-fraction", "reactive"])
def test_auto_groups_take_the_compiled_tier_when_it_is_on(
    monkeypatch, force_python, jamming
):
    """Single-family, single-horizon groups under ``auto`` run on the
    compiled tier whenever the interpreter is on — through the JIT where
    numba is importable, through the interpreter's python form when
    forced — and on numpy lockstep otherwise, with identical results."""
    if force_python:
        monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
        monkeypatch.setenv("REPRO_COMPILED_FORCE_PYTHON", "1")
    jammer = RANDOM_FRACTION if jamming == "random-fraction" else JAMMING["reactive"]
    specs = [
        _spec(
            "cjz", 4, "uniform-random", "none", 120, 2, seed, backend="auto"
        ).with_overrides({"adversary.jamming": jammer})
        for seed in (11, 12, 13)
    ]
    assert [len(g) for g in plan_fusion_groups(list(enumerate(specs)))] == [3]
    fused = StudyPlan(specs).run(fuse=True)
    _assert_studies_identical(fused, _reference(specs))
    expected = "lockstep-jit" if interpreter_mode() != "off" else "lockstep"
    assert {r.backend for f in fused for r in f.study.results} == {expected}


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
        with BackgroundServer(Path(root), workers=2) as server:
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
    siblings keep their fused results, and a re-run against the same store
    serves the siblings and re-runs only the failed point."""
    specs = [
        _spec("cjz", 4, "batch", "none", 120, 2, seed + i) for i in range(4)
    ]
    serial = StudyPlan(specs).run(fuse=False)
    with tempfile.TemporaryDirectory() as root:
        store = StudyStore(root)
        with faults.injected({"rules": [{"site": "sweep-point", "point": 1}]}):
            skipped = StudyPlan(specs).run(
                store=store, fuse=True, on_error="skip"
            )
        rerun = StudyPlan(specs).run(store=store, fuse=True)
    assert skipped[1].failed and "FaultInjected" in skipped[1].error
    for index in (0, 2, 3):
        assert not skipped[index].failed
    _assert_studies_identical(
        [r for i, r in enumerate(skipped) if i != 1],
        [r for i, r in enumerate(serial) if i != 1],
    )
    assert [r.cached for r in rerun] == [True, False, True, True]
    _assert_studies_identical([rerun[1]], [serial[1]])

    def records(point):
        wire = [result_record(r) for r in point.study.results]
        for record in wire:
            record.pop("wall_time_seconds")
        return wire

    assert [records(r) for r in rerun] == [records(r) for r in serial]
