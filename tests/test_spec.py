"""Tests for the declarative spec layer (repro.spec).

The heart of the suite is the round-trip property the API redesign promises:
for every registered protocol and adversary kind, ``to_json -> from_json``
preserves the spec exactly and the spec path runs seed-for-seed identical to
the callable-factory path.
"""

import numpy as np
import pytest

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
)
from repro.core import AlgorithmParameters, cjz_factory
from repro.errors import SpecError
from repro.functions import RateFunction, constant_g, log_g, polylog_g
from repro.sim import run_trials
from repro.spec import (
    ADVERSARIES,
    ARRIVAL_STRATEGIES,
    JAMMING_STRATEGIES,
    PROTOCOLS,
    AdversarySpec,
    ProtocolSpec,
    StrategySpec,
    StudySpec,
    rate_function_from_spec,
    rate_function_to_spec,
)

HORIZON = 384
TRIALS = 2
SEED = 20210219


def small_adversary() -> AdversarySpec:
    return AdversarySpec.batch(12, jam_fraction=0.2)


#: one spec per registered adversary kind (composed kinds via StrategySpec)
ADVERSARY_CASES = {
    "composed/batch+random": AdversarySpec.batch(10, jam_fraction=0.25),
    "composed/uniform+none": AdversarySpec.spread(10, end=HORIZON // 2),
    "composed/poisson+periodic": AdversarySpec.composed(
        "poisson", "periodic", {"rate": 0.02}, {"period": 5}
    ),
    "composed/bursty+reactive": AdversarySpec.composed(
        "bursty", "reactive", {"burst_size": 6, "period": 96}, {"fraction": 0.1, "burst": 4}
    ),
    "composed/scheduled+front-loaded": AdversarySpec.composed(
        "scheduled", "front-loaded", {"schedule": [[2, 4], [50, 4]]}, {"count": 16}
    ),
    "composed/none+budgeted": AdversarySpec.composed(
        "no-arrivals",
        "budgeted",
        {},
        {"g": {"kind": "constant", "params": {"value": 4.0}}, "budget_constant": 4.0},
    ),
    "lower-bound": AdversarySpec(
        kind="lower-bound",
        params={"g": {"kind": "constant", "params": {"value": 4.0}}, "initial_nodes": 2},
    ),
    "non-adaptive-killer": AdversarySpec(
        kind="non-adaptive-killer",
        params={"g": {"kind": "constant", "params": {"value": 4.0}}},
    ),
    "smooth": AdversarySpec(
        kind="smooth", params={"g": {"kind": "constant", "params": {"value": 4.0}}}
    ),
    "adaptive-success-chaser": AdversarySpec(
        kind="adaptive-success-chaser", params={"jam_fraction": 0.1, "seed_arrivals": 4}
    ),
    "schedule": AdversarySpec(
        kind="schedule", params={"arrivals": [[1, 8]], "jammed_slots": [3, 4]}
    ),
}


class TestRateFunctionSpecs:
    def test_standard_families_round_trip(self):
        for rate in (constant_g(3.0), log_g(2.0), polylog_g(1.5)):
            rebuilt = rate_function_from_spec(rate_function_to_spec(rate))
            for x in (16.0, 1024.0, 2.0**20):
                assert rebuilt(x) == pytest.approx(rate(x))

    def test_hand_rolled_function_rejected(self):
        custom = RateFunction("custom", lambda x: 2.0)
        with pytest.raises(SpecError):
            rate_function_to_spec(custom)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            rate_function_from_spec({"kind": "nope"})

    def test_parameter_beside_params_rejected(self):
        """A parameter written next to ``params`` is an error, not a
        silent fall back to the family's default."""
        with pytest.raises(SpecError, match="value"):
            rate_function_from_spec({"kind": "constant", "value": 2.0})
        with pytest.raises(SpecError, match="value"):
            ProtocolSpec(
                "cjz", {"g": {"kind": "constant", "value": 2.0}}
            ).build()
        rate = rate_function_from_spec(
            {"kind": "constant", "params": {"value": 2.0}}
        )
        assert rate(1024.0) == 2.0


class TestProtocolSpec:
    @pytest.mark.parametrize("kind", PROTOCOLS.kinds())
    def test_default_spec_builds_and_round_trips(self, kind):
        spec = ProtocolSpec(kind=kind)
        rebuilt = ProtocolSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        instance = spec.build()()
        assert instance.name

    @pytest.mark.parametrize("kind", PROTOCOLS.kinds())
    def test_instance_to_spec_rebuilds_identically(self, kind):
        spec = ProtocolSpec(kind=kind)
        instance = spec.build()()
        recovered = instance.to_spec()
        assert recovered.kind == kind
        # The recovered spec (with fully materialized params) must drive a
        # seed-identical study.
        adversary = small_adversary()
        original = run_trials(spec, adversary, HORIZON, trials=TRIALS, seed=SEED)
        rebuilt = run_trials(recovered, adversary, HORIZON, trials=TRIALS, seed=SEED)
        for a, b in zip(original, rebuilt):
            assert a.total_successes == b.total_successes
            assert a.prefix_active == b.prefix_active

    def test_from_spec_inverse(self):
        from repro.protocols.base import Protocol

        spec = ProtocolSpec(kind="slotted-aloha", params={"probability": 0.2})
        instance = Protocol.from_spec(spec)
        assert instance.to_spec() == spec
        # A to_dict mapping is accepted too.
        assert Protocol.from_spec(spec.to_dict()).to_spec() == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            ProtocolSpec(kind="quantum-backoff")

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError):
            ProtocolSpec(kind="slotted-aloha", params={"probabilty": 0.1})

    def test_cjz_from_f_is_not_serializable(self):
        params = AlgorithmParameters.from_f(
            f=RateFunction("const", lambda x: 2.0)
        )
        instance = cjz_factory(params)()
        with pytest.raises(SpecError):
            instance.to_spec()


class TestAdversarySpec:
    @pytest.mark.parametrize("name", sorted(ADVERSARY_CASES))
    def test_round_trip_and_build(self, name):
        spec = ADVERSARY_CASES[name]
        rebuilt = AdversarySpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        adversary = rebuilt.build(HORIZON)
        adversary.setup(np.random.default_rng(0), HORIZON)
        action = adversary.action_for_slot(1)
        assert action.arrivals >= 0

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CASES))
    def test_instance_to_spec_round_trip(self, name):
        spec = ADVERSARY_CASES[name]
        instance = spec.build(HORIZON)
        recovered = instance.to_spec()
        rebuilt = recovered.build(HORIZON)
        # Same classes, same constructor state: drive both through setup with
        # the same seed and compare the resulting actions slot by slot.
        instance2 = spec.build(HORIZON)
        instance2.setup(np.random.default_rng(7), HORIZON)
        rebuilt.setup(np.random.default_rng(7), HORIZON)
        for slot in range(1, 65):
            a = instance2.action_for_slot(slot)
            b = rebuilt.action_for_slot(slot)
            assert (a.arrivals, a.jam) == (b.arrivals, b.jam)

    def test_registries_cover_every_case(self):
        monolithic = {s.kind for s in ADVERSARY_CASES.values() if s.kind != "composed"}
        assert monolithic == set(ADVERSARIES.kinds())
        arrival_kinds = {
            s.arrivals.kind for s in ADVERSARY_CASES.values() if s.kind == "composed"
        }
        jamming_kinds = {
            s.jamming.kind for s in ADVERSARY_CASES.values() if s.kind == "composed"
        }
        assert arrival_kinds == set(ARRIVAL_STRATEGIES.kinds())
        jammers = set(JAMMING_STRATEGIES.kinds())
        assert jamming_kinds <= jammers
        # random-fraction and no-jamming are exercised via the shorthand cases
        assert {"random-fraction", "no-jamming"} <= jammers

    def test_from_spec_inverse(self):
        from repro.adversary import Adversary

        spec = AdversarySpec(
            kind="lower-bound",
            params={"g": {"kind": "constant", "params": {"value": 4.0}}},
        )
        instance = Adversary.from_spec(spec, horizon=HORIZON)
        recovered = instance.to_spec()
        assert recovered.kind == "lower-bound"
        assert recovered.params["g"] == {"kind": "constant", "params": {"value": 4.0}}

    def test_composed_rejects_top_level_params(self):
        with pytest.raises(SpecError):
            AdversarySpec(
                arrivals=StrategySpec("batch"), params={"count": 3}
            )

    def test_monolithic_rejects_strategies(self):
        with pytest.raises(SpecError):
            AdversarySpec(kind="lower-bound", arrivals=StrategySpec("batch"))

    def test_horizon_required_for_proof_adversaries(self):
        spec = AdversarySpec(kind="lower-bound")
        with pytest.raises(SpecError):
            spec.build()


class TestStudySpecRoundTrip:
    @pytest.mark.parametrize("kind", PROTOCOLS.kinds())
    def test_every_protocol_seed_identical_to_callable_path(self, kind):
        adversary = small_adversary()
        spec = StudySpec(
            protocol=ProtocolSpec(kind=kind),
            adversary=adversary,
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        via_spec = StudySpec.from_json(spec.to_json()).run()
        via_callables = run_trials(
            protocol_factory=spec.protocol.build(),
            adversary_factory=adversary.factory(HORIZON),
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        for a, b in zip(via_spec, via_callables):
            assert a.total_successes == b.total_successes
            assert a.prefix_active == b.prefix_active
            assert a.prefix_jammed == b.prefix_jammed

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CASES))
    def test_every_adversary_seed_identical_to_callable_path(self, name):
        adversary = ADVERSARY_CASES[name]
        spec = StudySpec(
            protocol=ProtocolSpec(kind="probability-backoff"),
            adversary=adversary,
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        via_spec = StudySpec.from_json(spec.to_json()).run()
        via_callables = run_trials(
            protocol_factory=spec.protocol.build(),
            adversary_factory=adversary.factory(HORIZON),
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        for a, b in zip(via_spec, via_callables):
            assert a.total_successes == b.total_successes
            assert a.prefix_active == b.prefix_active
            assert a.prefix_jammed == b.prefix_jammed

    def test_spec_path_matches_hand_built_closures(self):
        """The spec path reproduces a manually assembled study bit for bit."""

        def adversary_factory():
            return ComposedAdversary(
                BatchArrivals(12), RandomFractionJamming(0.2)
            )

        manual = run_trials(
            protocol_factory=cjz_factory(AlgorithmParameters.from_g(constant_g(4.0))),
            adversary_factory=adversary_factory,
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        declarative = StudySpec(
            protocol=ProtocolSpec(
                kind="cjz",
                params={"g": {"kind": "constant", "params": {"value": 4.0}}},
            ),
            adversary=small_adversary(),
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        ).run()
        for a, b in zip(manual, declarative):
            assert a.total_successes == b.total_successes
            assert a.prefix_active == b.prefix_active

    def test_specs_are_hashable_by_content(self):
        a = StudySpec(
            protocol=ProtocolSpec(kind="slotted-aloha"), adversary=small_adversary()
        )
        b = StudySpec(
            protocol=ProtocolSpec(kind="slotted-aloha"), adversary=small_adversary()
        )
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert hash(ProtocolSpec()) == hash(ProtocolSpec())
        assert hash(small_adversary()) == hash(small_adversary())

    def test_json_round_trip_preserves_spec_exactly(self):
        spec = StudySpec(
            protocol=ProtocolSpec(kind="slotted-aloha", params={"probability": 0.07}),
            adversary=AdversarySpec.composed(
                "poisson", "periodic", {"rate": 0.01}, {"period": 7}, label="x"
            ),
            horizon=777,
            trials=3,
            seed=5,
            backend="reference",
            workers=2,
            stop_when_drained=True,
            label="round-trip",
        )
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            StudySpec.from_dict({"horizont": 10})

    def test_invalid_backend_rejected(self):
        with pytest.raises(SpecError):
            StudySpec(backend="gpu")

    @pytest.mark.parametrize(
        "data, field",
        [
            pytest.param({"horizon": "abc"}, "'horizon'", id="horizon"),
            pytest.param({"trials": [1]}, "'trials'", id="trials"),
            pytest.param({"seed": "x"}, "'seed'", id="seed"),
            pytest.param({"workers": None}, "'workers'", id="workers"),
            pytest.param({"horizon": 1e400}, "'horizon'", id="horizon-inf"),
            pytest.param({"horizon": 128.9}, "'horizon'", id="horizon-fraction"),
            pytest.param({"seed": 1.7}, "'seed'", id="seed-fraction"),
            pytest.param({"trials": True}, "'trials'", id="trials-bool"),
            pytest.param(
                {"protocol": {"kind": "cjz", "params": 3}}, "params", id="protocol"
            ),
            pytest.param(
                {"adversary": {"kind": "lower-bound", "params": 3}},
                "params",
                id="adversary",
            ),
            pytest.param(
                {"adversary": {"arrivals": {"kind": "batch", "params": "x"}}},
                "params",
                id="strategy",
            ),
            pytest.param(
                {"pipeline": {"reducers": [{"kind": "success-timeline", "params": 3}]}},
                "params",
                id="reducer",
            ),
            pytest.param(
                {"stop_when_drained": "no"}, "'stop_when_drained'", id="drained"
            ),
            pytest.param({"keep_trace": "false"}, "'keep_trace'", id="keep_trace"),
            pytest.param({"streaming": "yes"}, "'streaming'", id="streaming"),
        ],
    )
    def test_malformed_field_rejected_by_name(self, data, field):
        with pytest.raises(SpecError, match=field):
            StudySpec.from_dict(data)


G4 = {"kind": "constant", "params": {"value": 4.0}}
F_OF_G4 = {"kind": "derived-f", "params": {"g": G4, "a": 1.0, "c2": 1.0, "floor": 1.0}}

#: What every registered kind builds from ``{}`` (adversary kinds at horizon
#: 1024; required parameters from ``REQUIRED_PARAMS``), as ``spec_params()``
#: of the built object, or ``.spec`` for rate functions.  A moved builder
#: default changes a row here, and nothing else would notice: ``ProtocolSpec
#: (kind)`` round-trips through ``to_spec()`` whatever the default is.
PINNED_DEFAULTS = {
    "protocol": {
        "backon-backoff-cd": {
            "initial_probability": 0.5,
            "backoff_factor": 0.5,
            "backon_factor": 1.2,
            "min_probability": 1e-06,
            "max_probability": 1.0,
        },
        "binary-exponential-backoff": {"initial_window": 2, "max_window": None},
        "cjz": {"g": G4, "a": 1.0, "c2": 1.0, "c3": 4.0},
        "cjz-global-clock": {"g": G4, "a": 1.0, "c2": 1.0, "c3": 4.0},
        "log-uniform-fixed": {"scale": 1.0},
        "polynomial-backoff": {"degree": 2.0, "initial_window": 2},
        "probability-backoff": {"scale": 1.0},
        "sawtooth-backoff": {"initial_window": 4, "max_window": None},
        "slotted-aloha": {"probability": 0.1},
        "two-channel-no-jamming": {"backoff_sends_per_stage": 2.0, "c3": 4.0},
    },
    "arrivals": {
        "batch": {"count": 32, "slot": 1},
        "bursty": {
            "burst_size": 16,
            "period": 128,
            "jitter": True,
            "first_burst_slot": 1,
            "last_slot": None,
        },
        "no-arrivals": {},
        "poisson": {"rate": 0.05, "last_slot": None},
        "scheduled": {"schedule": []},
        "uniform-random": {"total": 32, "start": 1, "end": 1024},
    },
    "jamming": {
        "budgeted": {"g": G4, "budget_constant": 4.0},
        "front-loaded": {"count": 0},
        "no-jamming": {},
        "periodic": {"period": 4, "offset": 0},
        "random-fraction": {"fraction": 0.25, "last_slot": None},
        "reactive": {"fraction": 0.2, "burst": 8},
    },
    "adversary": {
        "adaptive-success-chaser": {
            "jam_fraction": 0.2,
            "arrival_budget_per_success": 2,
            "total_arrival_budget": None,
            "jam_burst": 4,
            "seed_arrivals": 1,
        },
        "lower-bound": {"g": G4, "initial_nodes": 1, "jam_constant": 4.0},
        "non-adaptive-killer": {
            "g": G4,
            "f": F_OF_G4,
            "jam_constant": 4.0,
            "arrival_constant": 4.0,
        },
        "schedule": {"arrivals": [], "jammed_slots": []},
        "smooth": {
            "f": F_OF_G4,
            "g": G4,
            "arrival_constant": 8.0,
            "jam_constant": 8.0,
        },
    },
    "rate": {
        "constant": G4,
        "derived-f": F_OF_G4,
        "exp-sqrt-log": {"kind": "exp-sqrt-log", "params": {"scale": 1.0, "floor": 2.0}},
        "log": {"kind": "log", "params": {"base": 2.0, "floor": 2.0}},
        "polylog": {"kind": "polylog", "params": {"power": 2.0, "floor": 2.0}},
    },
    "reducer": {
        "energy": {},
        "fg-throughput": {
            "f": F_OF_G4,
            "g": G4,
            "slack": 1.0,
            "min_prefix": 16,
            "additive_grace": 0.0,
        },
        "latency": {},
        "scalar": {"metric": "successes"},
        "success-timeline": {},
        "windowed-rate": {"window": 64},
    },
}

REQUIRED_PARAMS = {
    "derived-f": {"g": G4},
    "windowed-rate": {"window": 64},
    "fg-throughput": {"f": {"kind": "derived-f", "params": {"g": G4}}, "g": G4},
    "scalar": {"metric": "successes"},
}

#: spec_hash() of each standard scenario's default StudySpec.
PINNED_SCENARIO_HASHES = {
    "ethernet-burst": "83ebcc6ad66e9ea652191f5118f08f9f4ca9bed2a9afab2b32e6586b076d8d53",
    "wireless-interference": "7785bd82aecf61b37aa6b90194fef48816518dbf3ca407b6ffc954d362bdd7b4",
    "lock-convoy": "36708641ea44f7ed970ee83c0f39fb77ff69aba7bf45aa0ec466345fd0669487",
    "adversarial-jam": "d7aab886173a28f8ac9407a1c47c67cb640953cb9c71140d5fc079fa24229d3a",
}


def _as_specs(params):
    return {
        key: value.spec if isinstance(value, RateFunction) else value
        for key, value in params.items()
    }


class TestPinnedDefaults:
    def _built(self, family):
        from repro.spec import METRIC_REDUCERS, RATE_FUNCTIONS

        if family == "protocol":
            return {
                kind: ProtocolSpec(kind).build()().spec_params()
                for kind in PROTOCOLS.kinds()
            }
        if family == "rate":
            return {
                kind: RATE_FUNCTIONS.build(kind, REQUIRED_PARAMS.get(kind, {})).spec
                for kind in RATE_FUNCTIONS.kinds()
            }
        if family == "reducer":
            return {
                kind: _as_specs(
                    METRIC_REDUCERS.build(
                        kind, REQUIRED_PARAMS.get(kind, {})
                    ).spec_params()
                )
                for kind in METRIC_REDUCERS.kinds()
            }
        registry = {
            "arrivals": ARRIVAL_STRATEGIES,
            "jamming": JAMMING_STRATEGIES,
            "adversary": ADVERSARIES,
        }[family]
        return {
            kind: _as_specs(registry.build(kind, {}, horizon=1024).spec_params())
            for kind in registry.kinds()
        }

    @pytest.mark.parametrize("family", sorted(PINNED_DEFAULTS))
    def test_every_kind_builds_its_pinned_defaults(self, family):
        assert self._built(family) == PINNED_DEFAULTS[family]

    def test_standard_scenario_hashes_are_pinned(self):
        from repro.workloads import STANDARD_SCENARIOS

        assert {
            key: scenario.study_spec().spec_hash()
            for key, scenario in STANDARD_SCENARIOS.items()
        } == PINNED_SCENARIO_HASHES


class TestRunnerSpecSupport:
    def test_run_trials_accepts_specs_directly(self):
        study = run_trials(
            ProtocolSpec(kind="slotted-aloha"),
            small_adversary(),
            horizon=HORIZON,
            trials=TRIALS,
            seed=SEED,
        )
        assert study.trials == TRIALS


class TestWorkloadFoldIn:
    def test_every_scenario_is_a_runnable_study_spec(self):
        from repro.workloads import STANDARD_SCENARIOS, scenario_study

        for key in STANDARD_SCENARIOS:
            study = scenario_study(key, trials=1, seed=1).with_overrides(
                {"horizon": 256}
            )
            assert StudySpec.from_json(study.to_json()) == study
            result = study.run()
            assert result.trials == 1

    def test_quick_run_scenario(self):
        from repro import quick_run

        result = quick_run(scenario="adversarial-jam", horizon=256, seed=2)
        assert result.horizon == 256
        assert result.total_arrivals > 0
