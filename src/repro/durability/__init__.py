"""Durable session tier: write-ahead logging, snapshots, and shard routing.

The serving tier's :class:`~repro.server.store.SessionStore` is an in-memory
map of live :class:`~repro.service.session.RepairSession`s — fast, but a
restart loses every session.  This package adds the persistence layer under
it, built from three stdlib-only pieces:

* :mod:`repro.durability.wal` — an append-only **write-ahead log** of
  length-prefixed, CRC-checksummed JSON records with a configurable fsync
  policy.  Every session mutation is journaled before it is acknowledged; a
  torn final record (crash mid-write) is detected and truncated, never fatal.
* :mod:`repro.durability.snapshot` — atomic, generation-numbered **snapshot**
  files that periodically compact the WAL: live-session state is dumped with
  write-to-temp + ``os.replace``, so a crash mid-snapshot always leaves a
  consistent (snapshot, WAL-tail) pair to recover from.
* :mod:`repro.durability.shards` — a **consistent-hash ring** that partitions
  session ids across N shard directories (each with its own WAL +
  snapshots).  The on-disk layout is the unit a future multi-process
  deployment assigns to worker processes.

:mod:`repro.durability.journal` ties them together: a
:class:`SessionJournal` owns the shard directories, journals operations,
rotates WALs into snapshots, and rebuilds sessions on startup by replaying
the journal through the *existing* versioned
:class:`~repro.service.session.RepairSession` machinery — persistence is a
log of operations replayed through code the tests already trust, not a new
serialization format for solver state.
"""

from repro.durability.journal import (
    DurabilityConfig,
    DurabilityStats,
    RecoveredSession,
    SessionJournal,
)
from repro.durability.shards import HashRing, stable_hash
from repro.durability.snapshot import (
    latest_snapshot,
    list_generations,
    load_snapshot,
    write_snapshot,
)
from repro.durability.wal import (
    CorruptRecord,
    WriteAheadLog,
    pack_record,
    read_wal,
)

__all__ = [
    "CorruptRecord",
    "DurabilityConfig",
    "DurabilityStats",
    "HashRing",
    "RecoveredSession",
    "SessionJournal",
    "WriteAheadLog",
    "latest_snapshot",
    "list_generations",
    "load_snapshot",
    "pack_record",
    "read_wal",
    "stable_hash",
    "write_snapshot",
]
