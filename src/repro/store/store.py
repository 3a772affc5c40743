"""The persistent solve store and its cache adapter.

:class:`SolveStore` owns a directory of checksummed segment files plus
a JSON manifest and exposes a dict-like view of the validated entries;
:class:`StoreBackedCache` adapts it to the
:class:`~repro.formal.cache.SolveCache` interface the engines already
consume, so plugging persistence into the portfolio or the CEGAR loop
is a one-line cache swap.

Recovery invariants (each has a deterministic fault in
:mod:`repro.faults` and a test exercising it):

- a torn segment tail keeps its intact record prefix;
- a segment that is not a segment at all is skipped;
- a corrupted manifest is rebuilt from the segments on disk;
- a lock owned by a dead pid is taken over;
- a failed segment write (``ENOSPC``) keeps the entries pending in
  memory and retries on the next flush — a full disk degrades
  durability, never correctness;
- records are :mod:`repro.codec` JSON, never pickled: the bytes come
  back from a directory another process (or an attacker) may have
  touched, and the strict codec decodes them to a valid entry or not
  at all; malformed or hostile records are counted and dropped.

:class:`SolveStore` is additionally thread-safe: threads may write
through a shared :class:`StoreBackedCache` while another thread
flushes, so every method that touches the pending buffer, the entry
map or the segment list holds an internal mutex.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.codec import CodecError, dumps, entry_from_doc, entry_to_doc, loads
from repro.formal.cache import (
    CachedVerdict,
    ThreadSafeSolveCache,
    valid_entry,
)
from repro.ioutil import atomic_write, sweep_orphans
from repro.store.lock import StoreLock, StoreLockedError
from repro.store.segment import (
    SegmentError,
    parse_segment_name,
    read_segment,
    segment_name,
    write_segment,
)

MANIFEST_NAME = "manifest.json"

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


class StoreError(Exception):
    """The store directory cannot be used (format, permissions, ...)."""


@dataclass
class StoreStats:
    """Observability counters for one open store."""

    loaded: int = 0              # validated entries read at open
    rejected: int = 0            # malformed/hostile entries dropped
    torn_segments: int = 0       # segments recovered from a torn tail
    skipped_segments: int = 0    # unreadable segments skipped entirely
    stale_removed: int = 0       # other-generation leftovers deleted
    manifest_recovered: int = 0  # manifest rebuilt from the disk scan
    lock_takeovers: int = 0      # dead-owner locks taken over
    orphans_swept: int = 0       # stale .tmp.* files removed at open
    appended: int = 0            # entries appended this session
    flushed_segments: int = 0    # segment files written this session
    write_errors: int = 0        # failed segment/manifest writes (ENOSPC)
    compactions: int = 0
    hits: int = 0                # cache hits served by persisted entries

    def row(self) -> str:
        recovered = ""
        if (self.torn_segments or self.skipped_segments
                or self.manifest_recovered or self.lock_takeovers
                or self.rejected):
            recovered = (f" [recovered: {self.torn_segments} torn, "
                         f"{self.skipped_segments} skipped, "
                         f"{self.manifest_recovered} manifest rebuilds, "
                         f"{self.lock_takeovers} lock takeovers, "
                         f"{self.rejected} rejected]")
        errors = f", {self.write_errors} write errors" if self.write_errors else ""
        return (f"store: {self.loaded} loaded, {self.hits} hits, "
                f"{self.appended} appended in {self.flushed_segments} "
                f"segments{errors}{recovered}")


def _encode_entry(key: str, verdict: CachedVerdict) -> Optional[bytes]:
    """One record as canonical codec JSON; None when unencodable."""
    try:
        return dumps(entry_to_doc(key, verdict), canonical=True)
    except CodecError:
        return None


def _decode_entry(payload: bytes) -> Optional[Tuple[str, CachedVerdict]]:
    """(key, verdict) or None when the record is malformed or hostile."""
    try:
        return entry_from_doc(loads(payload))
    except CodecError:
        return None


class SolveStore:
    """A persistent, deduplicating verdict store in one directory.

    Args:
        directory: the store directory; created if missing.
        writable: acquire the writer lock and allow append/compact.
            Read-only opens never mutate the directory and need no
            lock.
        faults: optional :class:`repro.faults.FaultPlan`, consulted at
            the open/write injection points (recovery-path tests).
        flush_every: auto-flush the pending buffer after this many
            appended entries (``close``/``flush`` always drain it).
        compact_threshold: fold the store into a single fresh-
            generation segment on close once it spans more than this
            many segment files.
    """

    def __init__(self, directory: str, writable: bool = True,
                 faults=None, flush_every: int = 32,
                 compact_threshold: int = 16) -> None:
        self.directory = directory
        self.writable = writable
        self.faults = faults
        self.flush_every = flush_every
        self.compact_threshold = compact_threshold
        self.stats = StoreStats()
        self.generation = 0
        # One writer thread is the common case, but a store may be
        # shared between threads appending through a StoreBackedCache
        # and a thread flushing, so every method touching the maps
        # below takes the mutex.  Reentrant because append()
        # auto-flushes.
        self._mutex = threading.RLock()
        self._entries: Dict[str, CachedVerdict] = {}
        self._pending: Dict[str, CachedVerdict] = {}
        self._segments: List[str] = []
        self._next_seq = 0
        self._write_attempts = 0
        self._manifest_writes = 0
        self._warned_write_error = False
        self._closed = False
        self._lock: Optional[StoreLock] = None

        os.makedirs(directory, exist_ok=True)
        self.stats.orphans_swept = len(sweep_orphans(directory))
        if writable:
            if self.faults is not None:
                # May plant a stale lock right before acquisition.
                self.faults.on_store_open(directory)
            self._lock = StoreLock(directory)
            try:
                self._lock.acquire()
            except StoreLockedError:
                self._lock = None
                raise
            self.stats.lock_takeovers = self._lock.takeovers
        try:
            self._load()
        except BaseException:
            self._release_lock()
            raise

    # -- loading -----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        """The manifest document, or None when missing/corrupt.

        A corrupt manifest counts toward ``stats.manifest_recovered``
        (the disk scan rebuilds it); a manifest from a *newer* format
        refuses to open rather than silently rewriting a layout this
        code does not understand.
        """
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self.stats.manifest_recovered += 1
            return None
        if not isinstance(doc, dict):
            self.stats.manifest_recovered += 1
            return None
        fmt = doc.get("format")
        if isinstance(fmt, int) and fmt > FORMAT_VERSION:
            raise StoreError(
                f"store format {fmt} is newer than supported "
                f"({FORMAT_VERSION}); refusing to touch it")
        if (not isinstance(doc.get("generation"), int)
                or not isinstance(doc.get("segments"), list)
                or not all(isinstance(n, str) for n in doc["segments"])):
            self.stats.manifest_recovered += 1
            return None
        return doc

    def _load(self) -> None:
        disk: Dict[Tuple[int, int], str] = {}
        for name in os.listdir(self.directory):
            try:
                gen, seq = parse_segment_name(name)
            except ValueError:
                continue
            disk[(gen, seq)] = name
        manifest = self._read_manifest()
        if manifest is not None:
            self.generation = manifest["generation"]
        elif disk:
            self.generation = max(gen for gen, _seq in disk)
        else:
            self.generation = 0
        # Segments of the live generation, ordered by sequence number.
        # The manifest listing is advisory: a crash between a segment
        # landing and the manifest update leaves a current-generation
        # segment unlisted, and its entries are newest — adopt it.
        live = sorted((seq, name) for (gen, seq), name in disk.items()
                      if gen == self.generation)
        self._segments = [name for _seq, name in live]
        self._next_seq = live[-1][0] + 1 if live else 0
        listed = manifest["segments"] if manifest is not None else None
        # Leftovers from an interrupted compaction: either the old
        # generation (manifest already advanced) or an orphaned new one
        # (manifest never advanced).  Both are redundant — delete.
        stale = [name for (gen, _seq), name in disk.items()
                 if gen != self.generation]
        if self.writable:
            for name in stale:
                try:
                    os.unlink(os.path.join(self.directory, name))
                    self.stats.stale_removed += 1
                except OSError:  # pragma: no cover - raced
                    pass
        for name in self._segments:
            path = os.path.join(self.directory, name)
            try:
                records, torn = read_segment(path)
            except SegmentError:
                self.stats.skipped_segments += 1
                continue
            if torn:
                self.stats.torn_segments += 1
            for payload in records:
                entry = _decode_entry(payload)
                if entry is None:
                    self.stats.rejected += 1
                    continue
                key, verdict = entry
                self._entries[key] = verdict  # later segments win
                self.stats.loaded += 1
        if self.writable and (manifest is None or listed != self._segments):
            # Normalize: rebuild a manifest that matches the disk.
            self._write_manifest()

    # -- writing -----------------------------------------------------------

    def _write_manifest(self) -> bool:
        doc = {"format": FORMAT_VERSION, "generation": self.generation,
               "segments": list(self._segments)}
        index = self._manifest_writes
        self._manifest_writes += 1
        path = self._manifest_path()
        try:
            with atomic_write(path, fsync=True) as handle:
                json.dump(doc, handle)
        except OSError:
            self.stats.write_errors += 1
            self._warn_write_error("manifest")
            return False
        if self.faults is not None:
            self.faults.on_manifest_written(index, path)
        return True

    def _warn_write_error(self, what: str) -> None:
        if self._warned_write_error:
            return
        self._warned_write_error = True
        warnings.warn(
            f"solve store {what} write failed in {self.directory!r}; "
            "entries stay pending in memory and will be retried "
            "(verdicts are unaffected)", stacklevel=3)

    def append(self, key: str, verdict: CachedVerdict) -> bool:
        """Buffer one entry for the next flush; False if malformed."""
        with self._mutex:
            if self._closed:
                raise StoreError("store is closed")
            if not self.writable:
                raise StoreError("store opened read-only")
            if not valid_entry(key, verdict):
                self.stats.rejected += 1
                return False
            self._pending[key] = verdict
            self.stats.appended += 1
            if len(self._pending) >= self.flush_every:
                self.flush()
            return True

    def flush(self) -> bool:
        """Write pending entries as one new segment; False on failure.

        Failure (``ENOSPC``, permissions) keeps the entries pending so
        a later flush — or close — can retry; it never raises, because
        durability is best-effort while verdict correctness is not at
        stake.  The mutex is held across the whole write, so a flush
        from one thread can never race appends from another: when it
        returns True, everything appended before the call is durable.
        """
        with self._mutex:
            if not self._pending:
                return True
            if not self.writable:
                raise StoreError("store opened read-only")
            records = []
            for key, verdict in self._pending.items():
                payload = _encode_entry(key, verdict)
                if payload is None:  # unencodable detail; keep in memory
                    self.stats.rejected += 1
                    continue
                records.append(payload)
            index = self._write_attempts
            self._write_attempts += 1
            name = segment_name(self.generation, self._next_seq)
            path = os.path.join(self.directory, name)
            try:
                if self.faults is not None:
                    self.faults.check_store_write(index)
                write_segment(path, records)
            except OSError:
                self.stats.write_errors += 1
                self._warn_write_error("segment")
                return False
            if self.faults is not None:
                # May tear the just-written file (post-rename damage).
                self.faults.on_segment_written(index, path)
            self._next_seq += 1
            self._segments.append(name)
            self._entries.update(self._pending)
            self._pending.clear()
            self.stats.flushed_segments += 1
            self._write_manifest()
            return True

    def compact(self) -> bool:
        """Fold all live entries into one fresh-generation segment.

        Crash-safe at every step: the new generation's segment lands
        first, the manifest flips generations atomically, and only then
        are the old segments deleted — an interruption anywhere leaves
        one fully-readable generation (plus redundant leftovers the
        next open removes).
        """
        with self._mutex:
            if not self.writable:
                raise StoreError("store opened read-only")
            live = dict(self._entries)
            live.update(self._pending)
            new_gen = self.generation + 1
            name = segment_name(new_gen, 0)
            path = os.path.join(self.directory, name)
            records = [payload for key, verdict in live.items()
                       if (payload := _encode_entry(key, verdict)) is not None]
            index = self._write_attempts
            self._write_attempts += 1
            try:
                if self.faults is not None:
                    self.faults.check_store_write(index)
                write_segment(path, records)
            except OSError:
                self.stats.write_errors += 1
                self._warn_write_error("compaction")
                return False
            if self.faults is not None:
                self.faults.on_segment_written(index, path)
            old_segments = list(self._segments)
            self.generation = new_gen
            self._segments = [name]
            self._next_seq = 1
            self._entries = live
            self._pending.clear()
            self._write_manifest()
            for old in old_segments:
                try:
                    os.unlink(os.path.join(self.directory, old))
                except OSError:  # pragma: no cover - raced
                    pass
            self.stats.compactions += 1
            return True

    def close(self) -> None:
        """Flush, optionally compact, and release the writer lock."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            if self.writable:
                self._pending and self.flush()
                if len(self._segments) > self.compact_threshold:
                    self.compact()
            self._release_lock()

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "SolveStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def entries(self) -> Dict[str, CachedVerdict]:
        """A copy of the live view (loaded plus pending entries)."""
        with self._mutex:
            view = dict(self._entries)
            view.update(self._pending)
            return view

    def get(self, key: str) -> Optional[CachedVerdict]:
        with self._mutex:
            entry = self._pending.get(key)
            return entry if entry is not None else self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        with self._mutex:
            return key in self._pending or key in self._entries

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries.keys() | self._pending.keys())

    def cache(self, max_entries: int = 4096) -> "StoreBackedCache":
        """A :class:`SolveCache` view writing through to this store."""
        return StoreBackedCache(self, max_entries=max_entries)


class StoreBackedCache(ThreadSafeSolveCache):
    """A thread-safe :class:`SolveCache` persisted by a :class:`SolveStore`.

    Entries present in the store are preloaded (without inflating the
    ``stores`` counter); every new ``put`` — including entries restored
    from a checkpoint via ``merge_entries`` — is written through to the
    store's pending buffer.  Hits answered by an entry
    that came from disk additionally count in ``store.stats.hits``,
    which is what "served from the persistent store" checks read.

    Thread safety comes from :class:`ThreadSafeSolveCache`; the store
    has its own internal mutex, so flushing the store from a thread
    that does not hold this cache's mutex is safe.
    """

    def __init__(self, store: SolveStore, max_entries: int = 4096) -> None:
        super().__init__(max_entries)
        self.store = store
        self.preload_entries(store.entries())
        self._persistent = set(self._entries)

    def get(self, key: str) -> Optional[CachedVerdict]:
        with self._mutex:
            entry = super().get(key)
            if entry is not None and key in self._persistent:
                self.store.stats.hits += 1
            return entry

    def put(self, key: str, verdict: CachedVerdict) -> None:
        with self._mutex:
            super().put(key, verdict)
            if self.store.writable and key not in self.store:
                self.store.append(key, verdict)

    def flush(self) -> bool:
        """Drain the backing store's pending buffer to disk."""
        return self.store.flush()
