"""The job daemon end to end: dedup, progress, persistence.

Each test starts a real :class:`repro.serve.JobServer` on a unix
socket (in a background thread) and talks to it through the real
client — the same code path as ``python -m repro <cmd> --remote``.
Jobs are tiny hand-built circuits so the whole file runs in seconds.
"""

import contextlib
import json
import socket as socket_module
import threading
import time

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.serialize import circuit_to_dict
from repro.serve import (
    JobServer,
    ServeJobError,
    ServeUnavailable,
    connect,
)


def _safe_machine():
    b = ModuleBuilder("safe")
    c = b.reg("cnt", 4)
    c.drive(c)
    b.output("bad", c.eq(5))
    return b.build()


def _unsafe_counter():
    b = ModuleBuilder("unsafe")
    c = b.reg("cnt", 4)
    c.drive(c + 1)
    b.output("bad", c.eq(3))
    return b.build()


def _solve_job(circuit=None, config=None):
    return {
        "kind": "solve",
        "circuit": circuit_to_dict(circuit or _safe_machine()),
        "prop": {"bad": "bad"},
        "config": config or {"max_bound": 6},
    }


@contextlib.contextmanager
def _daemon(tmp_path, **kwargs):
    """A running JobServer; yields (server, socket path)."""
    path = str(tmp_path / "serve.sock")
    server = JobServer(path, **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        # Wait until the socket accepts connections.
        connect(path, retries=50, retry_delay=0.1).close()
        yield server, path
    finally:
        try:
            with connect(path) as client:
                client.shutdown()
        except ServeUnavailable:
            pass  # already stopped by the test body
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon thread failed to stop"


class TestDaemonBasics:
    def test_ping_stats_and_solve(self, tmp_path):
        with _daemon(tmp_path) as (server, path):
            with connect(path) as client:
                assert client.ping()
                reply = client.submit(_solve_job())
                assert reply["ok"] and not reply["dedup"]
                assert reply["result"]["status"] == "proved"
                stats = client.stats()
                assert stats["serve"]["submitted"] == 1
                assert stats["serve"]["completed"] == 1
                assert stats["inflight"] == 0

    def test_connect_without_daemon_raises(self, tmp_path):
        with pytest.raises(ServeUnavailable, match="no job daemon"):
            connect(str(tmp_path / "nothing.sock"))

    def test_progress_always_at_least_one_event(self, tmp_path):
        with _daemon(tmp_path) as (_server, path):
            events = []
            with connect(path) as client:
                client.submit(_solve_job(), progress=True,
                              on_progress=events.append)
            assert len(events) >= 1
            assert all(e["type"] == "progress" for e in events)

    def test_job_error_does_not_poison_the_connection(self, tmp_path):
        with _daemon(tmp_path) as (server, path):
            with connect(path) as client:
                with pytest.raises(ServeJobError, match="unknown core"):
                    client.submit({"kind": "lint",
                                   "core": {"name": "Pentium"}})
                # Same connection, next job is fine.
                reply = client.submit(_solve_job())
                assert reply["ok"]
            assert server.stats.failed == 1
            assert server.stats.completed == 1

    def test_malformed_line_gets_error_reply_and_connection_survives(
            self, tmp_path):
        with _daemon(tmp_path) as (server, path):
            sock = socket_module.socket(socket_module.AF_UNIX,
                                        socket_module.SOCK_STREAM)
            sock.connect(path)
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            reply = json.loads(handle.readline())
            assert reply["type"] == "error"
            assert "JSON" in reply["error"]
            # Wrong version: rejected, not guessed at.
            handle.write(json.dumps({"v": 99, "type": "ping"}).encode()
                         + b"\n")
            handle.flush()
            assert json.loads(handle.readline())["type"] == "error"
            # The connection still works with a proper message.
            handle.write(json.dumps({"v": 1, "type": "ping"}).encode()
                         + b"\n")
            handle.flush()
            assert json.loads(handle.readline())["type"] == "pong"
            sock.close()
            assert server.stats.protocol_errors == 2


class TestDedup:
    def test_identical_jobs_share_one_computation(self, tmp_path,
                                                  monkeypatch):
        # Delay the verdict so the second submitter arrives while the
        # first computation is still in flight.
        import repro.formal.portfolio as portfolio

        real = portfolio._run_engine

        def slow_engine(*args, **kwargs):
            verdict = real(*args, **kwargs)
            time.sleep(1.5)
            return verdict

        monkeypatch.setattr(portfolio, "_run_engine", slow_engine)
        job = _solve_job(
            circuit=_unsafe_counter(),
            config={"engines": ["bmc"], "max_bound": 10},
        )
        with _daemon(tmp_path, workers=2) as (server, path):
            replies = [None, None]

            def submit(slot, delay):
                time.sleep(delay)
                with connect(path) as client:
                    replies[slot] = client.submit(job)

            threads = [threading.Thread(target=submit, args=(0, 0.0)),
                       threading.Thread(target=submit, args=(1, 0.5))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert replies[0] is not None and replies[1] is not None
            statuses = {r["result"]["status"] for r in replies}
            assert statuses == {"counterexample"}
            assert sorted(r["dedup"] for r in replies) == [False, True]
            assert server.stats.deduped == 1
            assert server.stats.completed == 1  # one computation, two answers


class TestPersistence:
    def test_store_survives_daemon_restart(self, tmp_path):
        """Verdicts computed by one daemon are served from disk by the
        next one (the warm-serving tentpole guarantee)."""
        store_dir = str(tmp_path / "store")
        job = _solve_job()
        with _daemon(tmp_path, store_dir=store_dir) as (server, path):
            with connect(path) as client:
                cold = client.submit(job)
            assert not cold["result"]["cache_hit"]
            assert server.store.stats.appended > 0
        with _daemon(tmp_path, store_dir=store_dir) as (server, path):
            assert server.store.stats.loaded > 0
            with connect(path) as client:
                warm = client.submit(job)
                stats = client.stats()
            assert warm["result"]["status"] == cold["result"]["status"]
            assert warm["result"]["cache_hit"]
            # Served entirely by persisted entries: no cache misses.
            assert stats["store"]["hits"] >= 1
            assert stats["cache"]["misses"] == 0

    def test_locked_store_degrades_to_memory_with_warning(self, tmp_path):
        from repro.store import SolveStore

        store_dir = str(tmp_path / "store")
        holder = SolveStore(store_dir)
        try:
            server = JobServer(str(tmp_path / "s.sock"), store_dir=store_dir)
            with pytest.warns(UserWarning, match="in-memory cache"):
                server._open_store()
            assert server.store is None
            assert server.cache is not None
        finally:
            holder.close()

    def test_flush_happens_before_the_client_sees_the_verdict(self, tmp_path):
        """Durability point: by the time submit() returns, the entries
        are on disk — a daemon SIGKILLed right after is safe."""
        store_dir = str(tmp_path / "store")
        with _daemon(tmp_path, store_dir=store_dir) as (server, path):
            with connect(path) as client:
                client.submit(_solve_job())
                # Flushed, not merely pending in memory:
                assert server.store._pending == {}
                assert server.store.stats.flushed_segments >= 1
