"""Tests for the consistent-hash ring behind the sharded study store."""

import hashlib

import pytest

from repro.errors import SpecError
from repro.serve import ConsistentHashRing


def sample_keys(count: int):
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]


class TestConstruction:
    def test_needs_at_least_one_node(self):
        with pytest.raises(SpecError):
            ConsistentHashRing([])

    def test_virtual_nodes_must_be_positive(self):
        with pytest.raises(SpecError):
            ConsistentHashRing(["a"], virtual_nodes=0)

    def test_duplicate_nodes_collapse(self):
        ring = ConsistentHashRing(["a", "b", "a"])
        assert ring.nodes == ["a", "b"]

    def test_node_order_is_canonical(self):
        assert (
            ConsistentHashRing(["b", "a"]).nodes
            == ConsistentHashRing(["a", "b"]).nodes
        )


class TestRouting:
    def test_deterministic_across_instances(self):
        keys = sample_keys(200)
        first = ConsistentHashRing(["a", "b", "c"])
        second = ConsistentHashRing(["a", "b", "c"])
        assert [first.node_for(k) for k in keys] == [
            second.node_for(k) for k in keys
        ]

    def test_single_node_takes_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.node_for(k) == "only" for k in sample_keys(50))

    def test_distribution_is_roughly_balanced(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=128)
        counts = ring.distribution(sample_keys(4000))
        assert set(counts) == {"a", "b", "c", "d"}
        for count in counts.values():
            # Expected 1000 per shard; 128 vnodes keeps the spread tight
            # enough that a 2x band is a safe, non-flaky assertion.
            assert 500 <= count <= 2000

    def test_all_nodes_reachable(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        seen = {ring.node_for(k) for k in sample_keys(1000)}
        assert seen == {"a", "b", "c"}
