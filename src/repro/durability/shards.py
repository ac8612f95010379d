"""Shard routing primitives shared by the durable store and the process tier.

Two routers with different contracts live here:

* :class:`HashRing` — **consistent hashing** for *persistent* placement.  A
  session id must map to the same shard directory across process restarts
  (the WAL that holds a session lives in exactly one shard), so the mapping
  must be a pure function of the key — no in-memory state.  Python's builtin
  ``hash`` is randomized per process (``PYTHONHASHSEED``), so the ring hashes
  through BLAKE2 instead.  Virtual nodes keep the key space spread evenly,
  and growing the shard count moves only ~1/N of the keys — the property
  that makes a future "add a shard, drain its neighbours" rebalance cheap.
* :class:`FirstSeenRouter` — the **first-seen round-robin affinity** map
  that gives each process-executor request its affine shard.  It optimizes
  *cache* placement, not persistence: the first request with a new key
  picks the next shard in rotation (an equal number of keys per shard for
  any key set — not equal work, since keys differ in cost and in how often
  they repeat), and repeats stick to it so warm per-worker LRUs keep
  hitting.  The process executor overrides it by load when the affine shard
  is busier than another.  The map is bounded; evicting an old key merely
  costs its next request a cold solve.  Deliberately *not* stable across
  restarts — warm caches die with the process anyway.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Hashable

from repro.exceptions import ReproError


def stable_hash(key: str | bytes, *, salt: str = "") -> int:
    """A 64-bit hash of ``key`` that is identical in every process.

    ``PYTHONHASHSEED`` randomizes the builtin ``hash`` per interpreter, which
    is exactly wrong for on-disk placement; BLAKE2b is stable, fast, and
    collision-resistant far beyond what shard routing needs.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8, person=b"qfixshrd").digest()
    if salt:
        digest = hashlib.blake2b(
            digest + salt.encode("utf-8"), digest_size=8, person=b"qfixshrd"
        ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash placement of string keys onto ``shards`` buckets.

    Parameters
    ----------
    shards:
        Number of shard buckets (≥ 1).
    vnodes:
        Virtual nodes per shard.  More vnodes → smoother balance; 64 keeps
        the worst/best shard load within a few percent for realistic key
        counts while the ring stays tiny (shards × vnodes entries).
    """

    def __init__(self, shards: int, *, vnodes: int = 64) -> None:
        if shards < 1:
            raise ReproError("shards must be at least 1")
        if vnodes < 1:
            raise ReproError("vnodes must be at least 1")
        self.shards = shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                points.append((stable_hash(f"shard-{shard}-vnode-{vnode}"), shard))
        points.sort()
        self._ring_points = [point for point, _ in points]
        self._ring_shards = [shard for _, shard in points]

    def shard_for(self, key: str | bytes) -> int:
        """The shard owning ``key`` — a pure function, stable across restarts."""
        if self.shards == 1:
            return 0
        position = bisect.bisect_right(self._ring_points, stable_hash(key))
        if position == len(self._ring_points):
            position = 0
        return self._ring_shards[position]

    def distribution(self, keys: "list[str]") -> list[int]:
        """Per-shard key counts for ``keys`` (diagnostics and tests)."""
        counts = [0] * self.shards
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(shards={self.shards}, vnodes={self.vnodes})"


class FirstSeenRouter:
    """First-seen round-robin shard affinity for arbitrary hashable keys.

    Deterministic (unlike ``hash()``, which ``PYTHONHASHSEED`` randomizes)
    and balanced by key count (k distinct keys spread k/n per shard instead
    of binomially).  That is not balance of work: keys differ in cost and in
    how often they repeat, so callers that care about load (the process
    executor) weigh it themselves.  Bounded so a key-churning workload
    cannot grow the map without limit — evicting an old key merely costs its
    next request a cold cache.  Thread-safe.
    """

    def __init__(self, shards: int, *, max_keys: int = 4096) -> None:
        if shards < 1:
            raise ReproError("shards must be at least 1")
        if max_keys < 1:
            raise ReproError("max_keys must be at least 1")
        self.shards = shards
        self.max_keys = max_keys
        self._lock = threading.Lock()
        self._assignments: dict[Hashable, int] = {}
        self._counter = 0

    def shard_for(self, key: Hashable) -> int:
        """The shard for ``key``, assigning the next shard in rotation if new."""
        with self._lock:
            shard = self._assignments.get(key)
            if shard is None:
                if len(self._assignments) >= self.max_keys:
                    self._assignments.pop(next(iter(self._assignments)))
                shard = self._counter % self.shards
                self._counter += 1
                self._assignments[key] = shard
            return shard

    def __len__(self) -> int:
        with self._lock:
            return len(self._assignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FirstSeenRouter(shards={self.shards}, keys={len(self)})"
