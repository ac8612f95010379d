"""Consistent-hash shard placement for the durable session store.

:class:`HashRing` maps each session id to one shard directory.  A session
must land on the same shard across process restarts (the WAL that holds a
session lives in exactly one shard), so the mapping is a pure function of
the key — no in-memory state.  Python's builtin ``hash`` is randomized per
process (``PYTHONHASHSEED``), so the ring hashes through BLAKE2 instead.
Virtual nodes keep the key space spread evenly, and growing the shard count
moves only ~1/N of the keys — the property that makes a future "add a shard,
drain its neighbours" rebalance cheap.
"""

from __future__ import annotations

import bisect
import hashlib

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

