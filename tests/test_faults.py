"""Deterministic fault-injection plans (repro.faults)."""

import json

import pytest

from repro import faults
from repro.errors import FaultInjected, SpecError
from repro.faults import FaultPlan, FaultRule


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(SpecError, match="unknown fault site"):
            FaultRule(site="nonsense")

    def test_rate_bounds_enforced(self):
        with pytest.raises(SpecError, match="rate"):
            FaultRule(site="kernel", rate=1.5)
        with pytest.raises(SpecError, match="rate"):
            FaultRule(site="kernel", rate=-0.1)

    def test_times_must_be_positive(self):
        with pytest.raises(SpecError, match="times"):
            FaultRule(site="kernel", times=0)

    def test_match_coordinates_pin_and_wildcard(self):
        rule = FaultRule(site="worker-crash", match={"shard": 1})
        assert rule.matches({"shard": 1, "attempt": 0})
        assert rule.matches({"shard": 1, "attempt": 5})
        assert not rule.matches({"shard": 2, "attempt": 0})
        # Omitted coordinate on the query side never matches a pinned one.
        assert not rule.matches({})

    def test_dict_round_trip_with_extra_keys_as_coords(self):
        rule = FaultRule.from_dict(
            {"site": "worker-crash", "shard": 1, "attempt": 0, "rate": 0.5}
        )
        assert rule.match == {"shard": 1, "attempt": 0}
        assert rule.rate == 0.5
        assert FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultPlan:
    def test_empty_plan_never_fires(self):
        plan = FaultPlan()
        assert plan.empty
        assert not plan.fires("worker-crash", shard=0)
        plan.maybe_raise("kernel", trials=8)  # no-op

    def test_exact_rule_fires_only_on_matching_coords(self):
        plan = FaultPlan(rules=[{"site": "worker-crash", "shard": 1, "attempt": 0}])
        assert plan.fires("worker-crash", shard=1, attempt=0)
        assert not plan.fires("worker-crash", shard=1, attempt=1)
        assert not plan.fires("worker-crash", shard=0, attempt=0)
        assert not plan.fires("worker-hang", shard=1, attempt=0)

    def test_times_caps_firings(self):
        plan = FaultPlan(rules=[{"site": "kernel", "times": 2}])
        assert plan.fires("kernel")
        assert plan.fires("kernel")
        assert not plan.fires("kernel")

    def test_rate_rule_is_deterministic(self):
        plan = FaultPlan(rules=[{"site": "worker-crash", "rate": 0.5}], seed=3)
        outcomes = [plan.fires("worker-crash", shard=s) for s in range(64)]
        replay = FaultPlan(rules=[{"site": "worker-crash", "rate": 0.5}], seed=3)
        assert outcomes == [replay.fires("worker-crash", shard=s) for s in range(64)]
        # A 0.5 rate over 64 distinct coordinates fires a nontrivial subset.
        assert 10 < sum(outcomes) < 54

    def test_rate_depends_on_seed(self):
        a = FaultPlan(rules=[{"site": "worker-crash", "rate": 0.5}], seed=1)
        b = FaultPlan(rules=[{"site": "worker-crash", "rate": 0.5}], seed=2)
        assert [a.fires("worker-crash", shard=s) for s in range(64)] != [
            b.fires("worker-crash", shard=s) for s in range(64)
        ]

    def test_maybe_raise_raises_fault_injected(self):
        plan = FaultPlan(rules=[{"site": "kernel"}])
        with pytest.raises(FaultInjected) as info:
            plan.maybe_raise("kernel", trials=4)
        assert info.value.site == "kernel"

    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=[
                {"site": "worker-crash", "shard": 1, "attempt": 0},
                {"site": "worker-hang", "rate": 0.25, "times": 3},
            ],
            seed=42,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.rules == plan.rules
        assert restored.seed == plan.seed

    def test_unknown_plan_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown fault plan field"):
            FaultPlan.from_dict({"rules": [], "bogus": 1})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{not json")


class TestActivation:
    def test_no_plan_means_inactive(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.active_plan().empty

    def test_injected_context_manager_restores(self):
        assert faults.active_plan().empty
        with faults.injected({"rules": [{"site": "kernel"}]}) as plan:
            assert faults.active_plan() is plan
            assert plan.fires("kernel")
        assert faults.active_plan().empty

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", json.dumps({"rules": [{"site": "kernel"}]})
        )
        plan = faults.active_plan()
        assert not plan.empty
        assert plan.rules[0].site == "kernel"

    def test_env_file_reference(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 9, "rules": [{"site": "store-corrupt"}]}))
        monkeypatch.setenv("REPRO_FAULTS", f"@{path}")
        plan = faults.active_plan()
        assert plan.seed == 9
        assert plan.rules[0].site == "store-corrupt"

    def test_programmatic_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", json.dumps({"rules": [{"site": "kernel"}]})
        )
        with faults.injected({"rules": []}):
            assert faults.active_plan().empty
        assert not faults.active_plan().empty

    def test_env_cache_tracks_value_changes(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", json.dumps({"rules": [{"site": "kernel"}]})
        )
        assert faults.active_plan().rules[0].site == "kernel"
        monkeypatch.setenv(
            "REPRO_FAULTS", json.dumps({"rules": [{"site": "worker-hang"}]})
        )
        assert faults.active_plan().rules[0].site == "worker-hang"
