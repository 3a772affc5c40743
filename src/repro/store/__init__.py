"""Persistent, crash-safe solve store shared across runs and processes.

The content-addressed :class:`~repro.formal.cache.SolveCache` memoizes
verdicts for one process; this package makes those verdicts *durable*:
an on-disk store of ``(solve key, CachedVerdict)`` entries that every
run — CLI verifies, ``run_compass(store_dir=...)``, benchmark
reruns — opens, extends and shares, so the system never re-proves work
it has already paid for.

Layout and guarantees (see ``docs/store.md`` for the format):

- entries live in append-only, per-record checksummed **segment
  files**, each written atomically via
  :func:`repro.ioutil.atomic_write`; a torn tail (power loss, injected
  fault) is detected per record and the intact prefix is kept;
- a JSON **manifest** names the live generation and its segments;
  a corrupted manifest is rebuilt from the segments on disk;
- **compaction** folds all live entries into a single segment under a
  bumped generation number; a crash at any point leaves either the old
  or the new generation fully readable;
- a single **writer lock** (advisory lock file) guards mutation, with
  dead-pid detection so the store survives a crashed owner; readers
  need no lock;
- every loaded entry is revalidated through
  :func:`repro.formal.cache.valid_entry`, so a corrupted or hostile
  store can never poison a verdict — bad entries are counted and
  dropped.
"""

from repro.store.lock import StoreLock, StoreLockedError, plant_stale_lock
from repro.store.segment import SegmentError, read_segment, write_segment
from repro.store.store import (
    StoreBackedCache,
    StoreError,
    StoreStats,
    SolveStore,
)

__all__ = [
    "SegmentError",
    "SolveStore",
    "StoreBackedCache",
    "StoreError",
    "StoreLock",
    "StoreLockedError",
    "StoreStats",
    "plant_stale_lock",
    "read_segment",
    "write_segment",
]
