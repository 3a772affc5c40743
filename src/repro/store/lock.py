"""Advisory writer lock for the persistent solve store.

One writer at a time mutates a store directory; readers need no lock
(segments are immutable once renamed into place and the manifest is
replaced atomically).  The lock is a JSON file created with
``O_CREAT | O_EXCL`` — portable, inspectable, and recoverable: a lock
whose owner pid is dead (crashed or SIGKILLed writer) is *stale*
and taken over instead of wedging the store forever.  Takeover itself
is serialized through an ``flock``-ed guard sidecar so two racers can
never both replace the stale lock and believe they hold it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

LOCK_NAME = "store.lock"

#: Persistent sidecar serializing stale-lock takeover; never unlinked
#: (its ``flock`` is dropped automatically when the holder exits).
GUARD_SUFFIX = ".guard"


class StoreLockedError(Exception):
    """The store is locked by a live writer process."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0, never delivers)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's live pid
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def _dead_pid() -> int:
    """A pid that is certainly dead: a reaped short-lived child."""
    proc = subprocess.Popen([sys.executable, "-c", ""],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    proc.wait()
    return proc.pid


def plant_stale_lock(directory: str, pid: Optional[int] = None) -> str:
    """Write a lock file owned by a dead pid (fault injection helper).

    Used by :meth:`repro.faults.FaultPlan.on_store_open` to prove the
    dead-owner takeover path; ``pid=None`` spawns and reaps a child so
    the planted owner is guaranteed dead.
    """
    if pid is None:
        pid = _dead_pid()
    path = os.path.join(directory, LOCK_NAME)
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": pid, "host": socket.gethostname(),
                   "created": time.time()}, handle)
    return path


class StoreLock:
    """``O_CREAT|O_EXCL`` lock file with dead-pid takeover.

    ``acquire`` raises :class:`StoreLockedError` when a *live* process
    holds the lock; a lock owned by a dead pid — or an unreadable lock
    file, which only a crashed writer leaves behind — is removed and
    re-taken (``takeovers`` counts how often that happened, for the
    store's observability counters).
    """

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, LOCK_NAME)
        self.held = False
        self.takeovers = 0

    def _read_owner(self) -> Optional[int]:
        """The owning pid, or None when the lock file is unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                info = json.load(handle)
            pid = info["pid"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return pid if isinstance(pid, int) else None

    def acquire(self) -> None:
        if self.held:
            return
        payload = json.dumps({
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created": time.time(),
        }).encode("utf-8")
        # Bounded retries: each loop either wins the O_EXCL create,
        # completes a (guard-serialized) takeover, or observes a live
        # owner and raises.
        for _ in range(16):
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                owner = self._read_owner()
                if owner is not None and _pid_alive(owner):
                    raise StoreLockedError(
                        f"store is locked by live pid {owner} ({self.path})")
                # Dead owner or unreadable lock: stale, take it over.
                if self._take_over_stale(payload):
                    return
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            self.held = True
            return
        raise StoreLockedError(  # pragma: no cover - pathological racing
            f"could not acquire {self.path} (takeover livelock)")

    def _take_over_stale(self, payload: bytes) -> bool:
        """Replace a stale lock with our own; True when we now hold it.

        The read-unlink-recreate sequence must be atomic with respect
        to other takeover attempts: without that, two racers can both
        observe the dead owner, racer A unlinks and recreates the
        lock, then racer B unlinks A's *fresh* lock — two live
        writers.  The sequence is therefore serialized through an
        ``flock``-ed guard file that is never unlinked.  Plain
        ``O_EXCL`` acquirers never unlink anything, so they cannot
        reintroduce the race: a create that slips between our unlink
        and our create simply wins, our create fails, and the next
        loop round observes that live owner and raises.
        """
        guard = os.open(self.path + GUARD_SUFFIX,
                        os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                # Blocking is fine: the critical section below is a
                # few syscalls, and a holder that dies mid-section
                # drops the flock with its fd.
                fcntl.flock(guard, fcntl.LOCK_EX)
            owner = self._read_owner()
            if (os.path.exists(self.path)
                    and owner is not None and _pid_alive(owner)):
                return False  # re-locked while we waited for the guard
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass  # the racing takeover's winner already released
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                return False  # an O_EXCL acquirer slipped in; it wins
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            self.takeovers += 1
            self.held = True
            return True
        finally:
            os.close(guard)  # drops the flock

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            os.unlink(self.path)
        except OSError:  # pragma: no cover - directory removed under us
            pass

    def __enter__(self) -> "StoreLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()
