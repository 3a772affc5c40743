"""The supervised worker pool (repro.supervise), driven with trivial
worker functions: crash relaunch, retry exhaustion, in-worker errors,
the kill backstop, cancellation, and the exit grace."""

import multiprocessing
import time

from repro import faults
from repro.formal.cache import CachedVerdict, SolveCache
from repro.supervise import EXIT_GRACE, WorkerPool

KEYS = ("k0", "k1", "k2", "k3")


def solve_keys(keys, *, cache, tracer, time_limit):
    """Store one entry per key; returns how many were already seeded."""
    seeded = 0
    for index, key in enumerate(keys):
        if cache.peek(key) is not None:
            seeded += 1
        else:
            cache.put(key, CachedVerdict("unsat", bound=index))
    return seeded


def raise_error(*, cache, tracer, time_limit):
    raise ValueError("boom")


def sleep_forever(*, cache, tracer, time_limit):
    time.sleep(60)


def put_then_sleep(key, *, cache, tracer, time_limit):
    cache.put(key, CachedVerdict("unsat", bound=0))
    time.sleep(60)


def return_at_once(*, cache, tracer, time_limit):
    return "done"


def _run(pool, limit=30.0):
    """Poll until the pool is empty; returns every outcome in order."""
    outcomes = []
    deadline = time.monotonic() + limit
    while len(pool) and time.monotonic() < deadline:
        outcomes.extend(pool.poll(0.05))
    assert not len(pool), "pool did not settle"
    return outcomes


def _children():
    return {p.pid for p in multiprocessing.active_children()}


class TestCrashes:
    def test_crash_is_relaunched_after_backoff_with_streamed_entries(self):
        plan = faults.FaultPlan((faults.kill_worker("w", after_solves=2),))
        cache = SolveCache()
        pool = WorkerPool(cache, retry_backoff=0.3, faults=plan)
        try:
            pool.submit("w", solve_keys, (KEYS,))
            outcomes = []
            while len(pool):
                for outcome in pool.poll(0.05):
                    outcomes.append((time.monotonic(), outcome))
        finally:
            pool.close()
        (crashed_at, retry), (done_at, done) = outcomes
        assert retry.status == "retrying"
        assert f"exit {faults.KILLED_EXIT_CODE}" in retry.detail
        assert done.status == "done"
        assert (done.attempts, done.retries) == (2, 1)
        # The relaunch started no earlier than the backoff allows...
        assert done_at - done.elapsed >= crashed_at + 0.25
        # ...and was seeded with the two entries the dead attempt
        # streamed, so it only had to solve the other two.
        assert done.result == 2
        assert all(key in cache for key in KEYS)

    def test_retry_exhaustion_reports_crashed(self):
        plan = faults.FaultPlan(tuple(
            faults.kill_worker("w", after_solves=1, attempt=attempt)
            for attempt in range(3)))
        pool = WorkerPool(SolveCache(), max_retries=1, retry_backoff=0.01,
                          faults=plan)
        try:
            pool.submit("w", solve_keys, (KEYS,))
            outcomes = _run(pool)
        finally:
            pool.close()
        assert [o.status for o in outcomes] == ["retrying", "crashed"]
        crashed = outcomes[-1]
        assert crashed.attempts == 2
        assert crashed.detail == (f"exit {faults.KILLED_EXIT_CODE} "
                                  "after 2 attempt(s)")

    def test_exit_with_result_in_flight_is_not_a_crash(self):
        pool = WorkerPool(None)
        try:
            pool.submit("w", return_at_once)
            pool._workers["w"].proc.join(timeout=10.0)
            # The exit is noticed before the result is read: the grace
            # period must let the queued result win.
            assert pool._supervise() == []
            time.sleep(EXIT_GRACE + 0.2)
            outcomes = _run(pool)
        finally:
            pool.close()
        assert [(o.status, o.result) for o in outcomes] == [("done", "done")]


class TestErrorsAndDeadlines:
    def test_worker_exception_is_reported_not_retried(self):
        pool = WorkerPool(SolveCache(), retry_backoff=0.01)
        try:
            pool.submit("w", raise_error)
            outcomes = _run(pool)
        finally:
            pool.close()
        assert len(outcomes) == 1
        error = outcomes[0]
        assert error.status == "error"
        assert error.detail == "ValueError: boom"
        assert (error.attempts, error.retries) == (1, 0)

    def test_wedged_worker_is_reaped_at_the_backstop(self):
        before = _children()
        pool = WorkerPool(None)
        try:
            pool.submit("w", sleep_forever, budget=0.2)
            started = time.monotonic()
            outcomes = _run(pool)
            waited = time.monotonic() - started
        finally:
            pool.close()
        assert [o.status for o in outcomes] == ["deadline"]
        # budget + 2 + 0.25 * budget = 2.25 s.
        assert 2.2 <= waited < 10.0
        assert not _children() - before


class TestCancel:
    def test_cancel_reaps_and_keeps_streamed_entries(self):
        before = _children()
        cache = SolveCache()
        pool = WorkerPool(cache)
        try:
            pool.submit("w", put_then_sleep, ("streamed",))
            time.sleep(1.0)  # the entry is queued but not yet polled
            assert pool.cancel("w") is not None
            assert pool.cancel("w") is None
            assert not _children() - before
            assert pool.poll(0.0) == []
        finally:
            pool.close()
        assert "streamed" in cache
