"""Unit tests for composed adversary factories and named scenarios."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.spec import AdversarySpec
from repro.workloads import STANDARD_SCENARIOS, get_scenario


class TestBuildAdversaryFactory:
    """Composed adversaries built through ``AdversarySpec.factory``."""

    def drive(self, spec, horizon, slots=None):
        adversary = spec.factory(horizon)()
        adversary.setup(np.random.default_rng(0), horizon)
        slots = slots or horizon
        actions = [adversary.action_for_slot(s) for s in range(1, slots + 1)]
        return adversary, actions

    def test_batch_spec(self):
        spec = AdversarySpec.composed("batch", arrival_params={"count": 5, "slot": 3})
        _, actions = self.drive(spec, 64)
        assert actions[2].arrivals == 5
        assert sum(a.arrivals for a in actions) == 5

    def test_poisson_spec(self):
        spec = AdversarySpec.composed("poisson", arrival_params={"rate": 0.1})
        _, actions = self.drive(spec, 2000)
        total = sum(a.arrivals for a in actions)
        assert 100 < total < 320

    def test_uniform_spec(self):
        spec = AdversarySpec.composed(
            "uniform-random", arrival_params={"total": 30, "start": 1, "end": 128}
        )
        _, actions = self.drive(spec, 256)
        assert sum(a.arrivals for a in actions) == 30
        assert sum(a.arrivals for a in actions[128:]) == 0

    def test_bursty_spec(self):
        spec = AdversarySpec.composed(
            "bursty", arrival_params={"burst_size": 4, "period": 128}
        )
        _, actions = self.drive(spec, 512)
        assert sum(a.arrivals for a in actions) >= 4

    def test_random_jamming_spec(self):
        spec = AdversarySpec.composed(
            "no-arrivals", "random-fraction", jamming_params={"fraction": 0.5}
        )
        _, actions = self.drive(spec, 2000)
        jams = sum(1 for a in actions if a.jam)
        assert 800 < jams < 1200

    def test_periodic_jamming_spec(self):
        spec = AdversarySpec.composed(
            "no-arrivals", "periodic", jamming_params={"period": 10}
        )
        _, actions = self.drive(spec, 100)
        assert sum(1 for a in actions if a.jam) == 10

    def test_factory_produces_fresh_instances(self):
        spec = AdversarySpec.composed("batch", label="my-load")
        factory = spec.factory(64)
        assert factory() is not factory()
        assert factory().name == spec.name


class TestScenarios:
    def test_standard_scenarios_present(self):
        assert {"ethernet-burst", "wireless-interference", "lock-convoy", "adversarial-jam"} <= set(
            STANDARD_SCENARIOS
        )

    def test_get_scenario(self):
        scenario = get_scenario("lock-convoy")
        assert scenario.adversary.arrivals.kind == "batch"
        assert scenario.description

    def test_get_scenario_unknown(self):
        with pytest.raises(ConfigurationError):
            get_scenario("does-not-exist")

    def test_all_scenario_specs_buildable(self):
        for scenario in STANDARD_SCENARIOS.values():
            adversary = scenario.adversary.factory(scenario.horizon)()
            adversary.setup(np.random.default_rng(0), scenario.horizon)
            action = adversary.action_for_slot(1)
            assert action.arrivals >= 0
