"""Crash-safe checkpoint journal for CEGAR runs.

Without checkpoints, a crashed parent process (OOM kill, preemption,
ctrl-C) discards every refined scheme, eliminated counterexample and
cached solve of a long verify.  :class:`CheckpointJournal` makes the
loop resumable: after every completed CEGAR iteration the loop appends
a :class:`CegarCheckpoint` (scheme, iteration counter, stats,
pruned-candidate set, RNG state, solve-cache snapshot) as a numbered
entry, ``<dir>/journal-000007.ckpt``, keeping the newest ``keep``.

Each entry is a one-record segment (:mod:`repro.store.segment`: atomic,
fsync'd, checksummed) holding the checkpoint as :mod:`repro.codec`
JSON.  A torn or corrupted entry is detected and the reader falls back
to the newest intact one; nothing read back is unpickled.  The format
and its guarantees are in ``docs/robustness.md``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cegar.loop import RefinementStats
from repro.codec import CodecError, dumps, from_doc, loads, to_doc
from repro.faults import FaultPlan
from repro.formal.cache import CachedVerdict
from repro.ioutil import sweep_orphans
from repro.store.segment import SegmentError, read_segment, write_segment
from repro.taint.space import TaintScheme

#: Magic of the pickle journals written before the JSON format.
LEGACY_MAGIC = b"COMPASS-CKPT v1\n"
_ENTRY_RE = re.compile(r"^journal-(\d{6})\.ckpt$")

#: Bump when the checkpoint payload schema changes incompatibly
#: (3: the in-flight candidate record was dropped).
FORMAT_VERSION = 3


class CheckpointError(Exception):
    """A checkpoint could not be written or no intact entry exists."""


@dataclass
class CegarCheckpoint:
    """Everything needed to restart a CEGAR run where it stopped.

    ``iteration`` is the *next* iteration to execute: a checkpoint
    written after iteration k completed carries ``iteration == k + 1``.
    ``config_digest`` guards against resuming under different knobs
    (which would make the resumed trajectory diverge silently).
    """

    version: int
    task_name: str
    config_digest: str
    iteration: int
    scheme: TaintScheme
    stats: RefinementStats
    last_bound: int = -1
    #: ``random.Random.getstate()``: (version, 625 words, gauss_next).
    rng_state: Optional[Tuple[int, Tuple[int, ...], Optional[float]]] = None
    cache_entries: Dict[str, CachedVerdict] = field(default_factory=dict)
    #: Refinement locations that exhausted the option ladder so far
    #: (the loop's pruned-candidate set, restored for observability and
    #: so resumed runs keep identical retry trajectories).
    pruned_candidates: Set[str] = field(default_factory=set)


def _encode(checkpoint: CegarCheckpoint) -> bytes:
    """The journal record payload for ``checkpoint``."""
    return dumps(to_doc(checkpoint))


def _read(path: str) -> CegarCheckpoint:
    """Parse and verify one journal entry; raises CheckpointError."""
    try:
        records, torn = read_segment(path)
    except SegmentError as exc:
        with open(path, "rb") as handle:
            legacy = handle.read(len(LEGACY_MAGIC)) == LEGACY_MAGIC
        if legacy:
            raise CheckpointError(
                "the journal predates the JSON checkpoint format (pickle "
                "payload); delete the journal and rerun") from exc
        raise CheckpointError(
            "bad magic (not a compass checkpoint)") from exc
    if torn or len(records) != 1:
        raise CheckpointError("checksum mismatch (torn or corrupted entry)")
    try:
        doc = loads(records[0])
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"format version {version!r} != {FORMAT_VERSION}")
        return from_doc(CegarCheckpoint, doc)
    except CodecError as exc:
        raise CheckpointError(f"undecodable payload: {exc}") from exc


class CheckpointJournal:
    """Numbered, checksummed, atomically-written checkpoint directory.

    Args:
        directory: journal directory; created if missing.
        keep: how many of the newest entries to retain.  At least 2, so
            a corrupted newest entry always has an intact predecessor
            to fall back to.
        faults: optional deterministic fault plan; consulted after each
            entry is written (checkpoint corruption / parent-kill
            faults for the recovery tests).
    """

    def __init__(self, directory: str, keep: int = 4,
                 faults: Optional[FaultPlan] = None) -> None:
        if keep < 2:
            raise ValueError("keep must be >= 2 (corruption fallback needs "
                             "a previous entry)")
        self.directory = directory
        self.keep = keep
        self.faults = faults
        os.makedirs(directory, exist_ok=True)
        # A writer SIGKILLed between mkstemp and rename leaves a
        # .tmp.* orphan next to the journal entries; clean old ones up
        # (the age guard protects a concurrent writer's in-flight file).
        sweep_orphans(directory)

    # -- enumeration -------------------------------------------------------

    def entries(self) -> List[Tuple[int, str]]:
        """(index, absolute path) of every journal entry, oldest first."""
        found = []
        for name in os.listdir(self.directory):
            match = _ENTRY_RE.match(name)
            if match:
                found.append((int(match.group(1)),
                              os.path.join(self.directory, name)))
        return sorted(found)

    def __len__(self) -> int:
        return len(self.entries())

    # -- writing -----------------------------------------------------------

    def append(self, checkpoint: CegarCheckpoint) -> str:
        """Write the next journal entry atomically; returns its path."""
        entries = self.entries()
        index = entries[-1][0] + 1 if entries else 0
        path = os.path.join(self.directory, f"journal-{index:06d}.ckpt")
        write_segment(path, [_encode(checkpoint)])
        self._prune(index)
        if self.faults is not None:
            # May damage the file just written or SIGKILL this process.
            self.faults.on_checkpoint_written(index, path)
        return path

    def _prune(self, newest_index: int) -> None:
        for index, path in self.entries():
            if index <= newest_index - self.keep:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - raced by another run
                    pass

    # -- reading -----------------------------------------------------------

    def latest(self) -> Optional[CegarCheckpoint]:
        """The newest *intact* checkpoint, or None for an empty journal.

        Entries failing the checksum or failing to decode are skipped
        (newest first), so a truncated or corrupted tail falls back to
        the previous entry.  Raises :class:`CheckpointError` only when
        the journal has entries but none of them is readable.
        """
        checkpoint, _skipped = self.latest_with_diagnostics()
        return checkpoint

    def latest_with_diagnostics(
        self,
    ) -> Tuple[Optional[CegarCheckpoint], List[str]]:
        """Like :meth:`latest`, plus messages for every skipped entry."""
        entries = self.entries()
        skipped: List[str] = []
        for index, path in reversed(entries):
            try:
                return _read(path), skipped
            except (OSError, CheckpointError) as exc:
                skipped.append(f"journal-{index:06d}.ckpt: {exc}")
        if entries:
            raise CheckpointError(
                "no intact checkpoint in %r: %s"
                % (self.directory, "; ".join(skipped)))
        return None, skipped
