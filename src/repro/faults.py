"""Deterministic fault injection for robustness testing.

Long-running CEGAR verifies must survive a killed process and torn
files.  Proving that the recovery paths actually work requires
*reproducing* those failures on demand, so this module provides a
seeded, deterministic :class:`FaultPlan` that the checkpoint journal
and the persistent solve store consult at well-defined injection
points:

- :func:`corrupt_checkpoint` / :func:`truncate_checkpoint` — damage a
  checkpoint journal entry on disk right after it was written (the
  reader must detect the bad checksum and fall back);
- :func:`kill_after_checkpoint` — SIGKILL the *calling process* right
  after journal entry N hit the disk (simulates a dead parent; the
  integration tests resume from the journal and expect the identical
  verdict);
- :func:`torn_segment` / :func:`corrupt_manifest` — damage a persistent
  solve-store segment or its manifest right after it was written (the
  store's torn-tail / manifest-rebuild recovery must kick in on the
  next open);
- :func:`stale_lock` — plant a store lock file owned by a dead pid
  before the store is opened (the open must detect the dead owner and
  take the lock over);
- :func:`enospc` — fail the N-th store segment write with ``ENOSPC``
  (the store must keep the entries pending and retry on the next
  flush instead of crashing the verify).
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass
from typing import Optional, Tuple

_JOURNAL_KINDS = ("corrupt_checkpoint", "truncate_checkpoint",
                  "kill_after_checkpoint")
_STORE_KINDS = ("torn_segment", "corrupt_manifest", "stale_lock", "enospc")
KINDS = _JOURNAL_KINDS + _STORE_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault (plain data; see the module constructors)."""

    kind: str
    after: int = 0                 # journal entry / segment / manifest index
    pid: Optional[int] = None      # stale_lock only: the planted dead owner

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")


def corrupt_checkpoint(index: int = 0) -> FaultSpec:
    """Flip bytes in journal entry ``index`` right after it is written."""
    return FaultSpec("corrupt_checkpoint", after=index)


def truncate_checkpoint(index: int = 0) -> FaultSpec:
    """Cut journal entry ``index`` in half right after it is written."""
    return FaultSpec("truncate_checkpoint", after=index)


def kill_after_checkpoint(index: int = 0) -> FaultSpec:
    """SIGKILL the writing process after journal entry ``index`` landed."""
    return FaultSpec("kill_after_checkpoint", after=index)


def torn_segment(index: int = 0) -> FaultSpec:
    """Truncate solve-store segment write ``index`` right after it lands."""
    return FaultSpec("torn_segment", after=index)


def corrupt_manifest(index: int = 0) -> FaultSpec:
    """Flip bytes in the store manifest after its ``index``-th write."""
    return FaultSpec("corrupt_manifest", after=index)


def stale_lock(pid: Optional[int] = None) -> FaultSpec:
    """Plant a store lock owned by a dead pid before the store opens.

    ``pid=None`` spawns (and reaps) a short-lived child at injection
    time and uses its — by then certainly dead — pid.
    """
    return FaultSpec("stale_lock", pid=pid)


def enospc(index: int = 0) -> FaultSpec:
    """Fail solve-store segment write ``index`` with ``ENOSPC``."""
    return FaultSpec("enospc", after=index)


@dataclass
class FaultPlan:
    """A seeded, deterministic set of faults to inject during a run.

    The plan is consulted at each injection point; the callers pass
    the index of the write they just made, so the plan keeps no
    counters of its own.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)

    def _matching(self, kind: str):
        return (spec for spec in self.specs if spec.kind == kind)

    # -- journal-side hooks ------------------------------------------------

    def on_checkpoint_written(self, index: int, path: str) -> None:
        """Called by the journal right after entry ``index`` was renamed
        into place; damages the file or kills the process per plan."""
        for spec in self._matching("truncate_checkpoint"):
            if spec.after == index:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
        for spec in self._matching("corrupt_checkpoint"):
            if spec.after == index:
                rng = random.Random((self.seed << 16) ^ index)
                with open(path, "r+b") as handle:
                    data = bytearray(handle.read())
                    for _ in range(3):  # flip a few payload bytes
                        pos = rng.randrange(len(data) // 2, len(data))
                        data[pos] ^= 0xFF
                    handle.seek(0)
                    handle.write(bytes(data))
        for spec in self._matching("kill_after_checkpoint"):
            if spec.after == index:
                os.kill(os.getpid(), signal.SIGKILL)

    # -- store-side hooks --------------------------------------------------

    def on_store_open(self, directory: str) -> None:
        """Called by the solve store right before its lock acquisition;
        plants a stale lock file owned by a dead pid per plan."""
        for spec in self._matching("stale_lock"):
            from repro.store.lock import plant_stale_lock

            plant_stale_lock(directory, pid=spec.pid)

    def check_store_write(self, index: int) -> None:
        """Called by the store before segment write ``index`` (counted
        per open); raises an injected ``ENOSPC`` per plan."""
        import errno

        for spec in self._matching("enospc"):
            if spec.after == index:
                raise OSError(errno.ENOSPC, "injected ENOSPC (fault plan)")

    def on_segment_written(self, index: int, path: str) -> None:
        """Called right after segment write ``index`` was renamed into
        place; tears its tail per plan (the reader must keep the intact
        record prefix)."""
        for spec in self._matching("torn_segment"):
            if spec.after == index:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    # Keep the magic intact: the point is a torn *tail*
                    # (keep-the-prefix recovery), not an unreadable file.
                    handle.truncate(max(24, size // 2))

    def on_manifest_written(self, index: int, path: str) -> None:
        """Called right after manifest write ``index`` (counted per
        open) landed; flips payload bytes per plan so the reader must
        rebuild the manifest from the segments on disk."""
        for spec in self._matching("corrupt_manifest"):
            if spec.after == index:
                rng = random.Random((self.seed << 16) ^ 0x5AFE ^ index)
                with open(path, "r+b") as handle:
                    data = bytearray(handle.read())
                    for _ in range(3):
                        pos = rng.randrange(len(data))
                        data[pos] ^= 0xFF
                    handle.seek(0)
                    handle.write(bytes(data))
