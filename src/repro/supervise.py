"""One supervised process pool for every parallel worker in the repo.

The verification portfolio's engine workers and speculative CEGAR's
candidate workers both run on :class:`WorkerPool`.  The pool owns the
mechanics: launching workers seeded from the parent cache, streaming
their solve results back, the kill backstop, reaping, crash relaunch
with backoff, and merging results, cache counters and trace events.
Its callers keep only their policies (what to run, which result wins,
what to cancel).  ``docs/robustness.md`` ("Worker supervision") states
the semantics.

The queue between the parent and its own workers carries pickles: both
ends are this process tree.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import FaultPlan
from repro.formal.cache import CachedVerdict, CacheStats, SolveCache
from repro.obs import NULL_TRACER, Tracer

#: Seconds a caller's wait loop blocks on the result queue per tick.
POLL_INTERVAL = 0.05

#: Seconds between a worker's process exiting and declaring it crashed:
#: its result may still be in flight through the queue.
EXIT_GRACE = 1.0


class _StreamingCache(SolveCache):
    """Worker-side cache that streams every store to the parent as soon
    as it is solved, so even a terminated worker's work survives."""

    def __init__(self, queue, label: str,
                 faults: Optional[FaultPlan] = None, attempt: int = 0) -> None:
        super().__init__()
        self._queue = queue
        self._label = label
        self._faults = faults
        self._attempt = attempt

    def put(self, key: str, entry: CachedVerdict) -> None:
        super().put(key, entry)
        payload = entry
        if self._faults is not None:
            # Injected message loss/corruption; None drops the message.
            payload = self._faults.filter_entry(self._label, self._attempt,
                                                entry)
        if payload is not None:
            try:
                self._queue.put({"type": "entry", "key": key,
                                 "entry": payload})
            except Exception:  # pragma: no cover - queue torn down mid-put
                pass
        if self._faults is not None:
            # One put == one completed solve; may os._exit the worker.
            self._faults.on_worker_solve(self._label, self._attempt)


def _run_worker(queue, key, label, attempt, fn, args, budget, seed_entries,
                traced, faults):
    """Entry point of every pool worker process.

    With ``traced`` the worker records into its own local tracer (the
    worker's pid as track id) and ships the events with its result.
    """
    cache = _StreamingCache(queue, label, faults=faults, attempt=attempt)
    if seed_entries:
        cache.merge_entries(seed_entries)
    baseline = replace(cache.stats)
    tracer = Tracer() if traced else None
    msg: Dict[str, Any] = {"type": "result", "key": key, "label": label,
                           "attempt": attempt}
    try:
        msg["result"] = fn(*args, cache=cache, tracer=tracer,
                           time_limit=budget)
    except Exception as exc:
        msg["type"] = "error"
        msg["detail"] = f"{type(exc).__name__}: {exc}"
    stats = cache.stats
    msg["entries"] = cache.snapshot_entries()
    # Report only this worker's traffic, not the seeding.
    msg["cache_stats"] = CacheStats(
        hits=stats.hits - baseline.hits,
        misses=stats.misses - baseline.misses,
        rejected=stats.rejected - baseline.rejected,
    )
    if tracer is not None:
        msg["trace_events"] = tracer.snapshot_events()
        msg["trace_pid"] = os.getpid()
    if faults is not None:
        delay = faults.verdict_delay(label, attempt)
        if delay > 0:
            time.sleep(delay)
    queue.put(msg)


@dataclass
class Outcome:
    """What :meth:`WorkerPool.poll` reports about one worker: ``done``
    (``result`` is what ``fn`` returned), ``error``, ``deadline``,
    ``crashed``, or ``retrying`` (the worker stays in the pool)."""

    key: str
    status: str
    result: Any = None
    detail: str = ""
    attempts: int = 0
    retries: int = 0
    elapsed: float = 0.0


@dataclass
class _Worker:
    key: str
    label: str
    fn: Callable
    args: Tuple
    deadline: Optional[float]          # absolute; None = unbudgeted
    proc: Any = None
    started: float = 0.0
    kill_at: Optional[float] = None    # seconds after ``started``
    relaunch_at: Optional[float] = None
    dead_since: Optional[float] = None
    attempts: int = 0
    retries: int = 0


class WorkerPool:
    """Supervised worker processes sharing one result queue.

    Args:
        cache: the parent's cache; seeds every launch and receives
            every streamed entry (None keeps nothing).
        tracer: worker spans are adopted onto this tracer's timeline.
        max_retries: relaunches of a crashed worker before ``crashed``.
        retry_backoff: base of the exponential relaunch backoff.
        faults: fault plan shipped into every worker.
    """

    def __init__(self, cache: Optional[SolveCache], tracer=None, *,
                 max_retries: int = 2, retry_backoff: float = 0.1,
                 faults: Optional[FaultPlan] = None) -> None:
        self.cache = cache
        self.tracer = tracer or NULL_TRACER
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.faults = faults
        self._ctx = multiprocessing.get_context()
        self._queue = self._ctx.Queue()
        self._workers: Dict[str, _Worker] = {}

    def __len__(self) -> int:
        return len(self._workers)

    def submit(self, key: str, fn: Callable, args: Tuple = (),
               budget: Optional[float] = None, label: Optional[str] = None,
               ) -> None:
        """Start ``fn(*args, cache=, tracer=, time_limit=budget)`` in a
        worker; ``label`` (default ``key``) names it for fault plans
        and trace tracks."""
        if key in self._workers:
            raise ValueError(f"worker {key!r} is already running")
        deadline = None if budget is None else time.monotonic() + budget
        worker = _Worker(key, label or key, fn, tuple(args), deadline)
        self._workers[key] = worker
        self._launch(worker, budget)

    def _launch(self, worker: _Worker, budget: Optional[float]) -> None:
        seed = self.cache.snapshot_entries() if self.cache is not None else None
        proc = self._ctx.Process(
            target=_run_worker,
            args=(self._queue, worker.key, worker.label, worker.attempts,
                  worker.fn, worker.args, budget, seed, self.tracer.enabled,
                  self.faults),
            daemon=True,
        )
        proc.start()
        worker.attempts += 1
        worker.proc = proc
        worker.started = time.monotonic()
        worker.kill_at = None if budget is None else budget + 2.0 + 0.25 * budget
        worker.relaunch_at = None
        worker.dead_since = None

    def cancel(self, key: str) -> Optional[float]:
        """Reap ``key``'s worker; returns how long its attempt ran, or
        None when no such worker is in the pool."""
        worker = self._workers.pop(key, None)
        if worker is None:
            return None
        _reap(worker.proc)
        return time.monotonic() - worker.started

    def close(self) -> None:
        """Cancel every worker and drop the queue."""
        for key in list(self._workers):
            self.cancel(key)
        # Close our end and drop its feeder thread so a half-drained
        # queue can never hang interpreter shutdown.
        self._queue.close()
        self._queue.cancel_join_thread()

    def poll(self, timeout: float = 0.0) -> List[Outcome]:
        """Pump the queue and police the workers; returns outcomes.

        Blocks at most once, for up to ``timeout`` seconds, and reads no
        further than the first finished worker's result: a caller that
        stops at a winner leaves what was queued after it unread.
        """
        outcomes: List[Outcome] = []
        relaunches = [w.relaunch_at for w in self._workers.values()
                      if w.relaunch_at is not None]
        if relaunches:
            timeout = min(timeout, max(0.0, min(relaunches) - time.monotonic()))
        while not outcomes:
            try:
                if timeout > 0:
                    msg = self._queue.get(timeout=timeout)
                else:
                    msg = self._queue.get_nowait()
            except queue_mod.Empty:
                break
            timeout = 0.0  # block for the first message only
            outcome = self._receive(msg)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes + self._supervise()

    def _receive(self, msg: Dict[str, Any]) -> Optional[Outcome]:
        cache = self.cache
        if msg["type"] == "entry":
            if cache is not None:
                cache.merge_entries({msg["key"]: msg["entry"]})
            return None
        # Losers warm the cache too: merge whatever the worker learned
        # even when it was cancelled in the meantime.
        if cache is not None:
            cache.merge_entries(msg["entries"])
            stats = msg["cache_stats"]
            # Its stores already counted via merge_entries.
            cache.stats.hits += stats.hits
            cache.stats.misses += stats.misses
            cache.stats.rejected += stats.rejected
        if self.tracer.enabled and msg.get("trace_events"):
            self.tracer.adopt(msg["trace_events"])
            self.tracer.label_track(msg["trace_pid"], f"{msg['label']} worker")
        key = msg["key"]
        worker = self._workers.get(key)
        if worker is None or msg["attempt"] != worker.attempts - 1:
            return None  # cancelled, or an attempt already written off
        del self._workers[key]
        worker.proc.join(timeout=5.0)
        status = "done" if msg["type"] == "result" else "error"
        return self._outcome(worker, status, result=msg.get("result"),
                             detail=msg.get("detail", ""))

    def _outcome(self, worker: _Worker, status: str, **kwargs) -> Outcome:
        return Outcome(worker.key, status, attempts=worker.attempts,
                       retries=worker.retries,
                       elapsed=time.monotonic() - worker.started, **kwargs)

    def _supervise(self) -> List[Outcome]:
        outcomes = []
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.relaunch_at is not None:
                if now < worker.relaunch_at:
                    continue
                budget = (None if worker.deadline is None
                          else worker.deadline - now)
                if budget is not None and budget <= 0:
                    del self._workers[worker.key]
                    outcomes.append(self._outcome(
                        worker, "deadline", detail="budget spent before relaunch"))
                else:
                    self._launch(worker, budget)
                continue
            if worker.kill_at is not None and now - worker.started > worker.kill_at:
                # Overran its own time_limit by the grace allowance:
                # assume it is wedged and cut it loose.
                del self._workers[worker.key]
                _reap(worker.proc)
                outcomes.append(self._outcome(worker, "deadline"))
            elif not worker.proc.is_alive():
                if worker.dead_since is None:
                    worker.dead_since = now
                elif now - worker.dead_since > EXIT_GRACE:
                    outcomes.append(self._crash(worker))
        return outcomes

    def _crash(self, worker: _Worker) -> Outcome:
        """A worker died without a result: back off and retry, or give up."""
        exitcode = worker.proc.exitcode
        _reap(worker.proc)
        if worker.retries < self.max_retries:
            backoff = self.retry_backoff * (2 ** worker.retries)
            worker.retries += 1
            worker.relaunch_at = time.monotonic() + backoff
            return self._outcome(
                worker, "retrying",
                detail=(f"crashed (exit {exitcode}), "
                        f"retry {worker.retries} in {backoff:.2f}s"))
        del self._workers[worker.key]
        return self._outcome(worker, "crashed",
                             detail=(f"exit {exitcode} after "
                                     f"{worker.attempts} attempt(s)"))


def _reap(proc) -> None:
    """terminate → join → kill."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - ignores SIGTERM: escalate
        proc.kill()
        proc.join(timeout=5.0)
