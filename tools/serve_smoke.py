#!/usr/bin/env python3
"""Serve smoke: the job daemon's robustness guarantees, end to end.

Starts a real daemon process (``python -m repro serve``) on a unix
socket with a persistent solve store, then drives it through the
verification-as-a-service contract:

1. **Dedup** — two clients submit the identical verify job
   concurrently; exactly one computation runs (``deduped`` counter),
   both get the same verdict, one marked ``dedup: true``.
2. **Warm store across restart** — the daemon is stopped and a fresh
   one opens the same store; rerunning the verify job must be served
   >= 90 % from persisted verdicts (``store.hits`` vs
   ``cache.misses`` counters) and reach the same verdict.

Run:  PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import ServeUnavailable, connect  # noqa: E402

CORE = {"name": "Sodor", "xlen": 4, "imem": 4, "dmem": 4, "secret_words": 1}
#: Small enough to finish a cold run in well under a CI minute, big
#: enough that the portfolio makes real solver calls worth persisting.
CONFIG = {"engine": "portfolio", "max_bound": 3,
          "total_time_limit": 300.0, "mc_time_limit": 60.0,
          "max_refinements": 30, "sim_trials": 16, "sim_depth": 8,
          "seed": 0}

VERIFY_JOB = {"kind": "verify", "core": CORE, "config": CONFIG}


def start_daemon(socket_path: str, store_dir: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--store", store_dir, "--workers", "2"],
        env=env, cwd=str(REPO))
    connect(socket_path, retries=100, retry_delay=0.1).close()
    return proc


def stop_daemon(proc: subprocess.Popen, socket_path: str) -> None:
    try:
        with connect(socket_path) as client:
            client.shutdown()
    except ServeUnavailable:
        pass
    if proc.wait(timeout=60) != 0:
        raise RuntimeError(f"daemon exited with {proc.returncode}")


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "serve.sock")
        store_dir = os.path.join(tmp, "store")

        daemon = start_daemon(socket_path, store_dir)

        # Phase 1: duplicate pair, submitted concurrently.
        replies = [None, None]

        def submit(slot):
            with connect(socket_path) as client:
                replies[slot] = client.submit(VERIFY_JOB)

        started = time.monotonic()
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with connect(socket_path) as client:
            stats = client.stats()
        flags = sorted(r["dedup"] for r in replies)
        statuses = {r["result"]["status"] for r in replies}
        print(f"dedup pair: statuses={sorted(statuses)} flags={flags} "
              f"deduped={stats['serve']['deduped']} "
              f"({time.monotonic() - started:.1f}s)")
        if flags != [False, True]:
            failures.append(f"expected one attached submission, got {flags}")
        if stats["serve"]["deduped"] != 1:
            failures.append("server deduped counter is not 1")
        if len(statuses) != 1:
            failures.append(f"dup pair verdicts diverged: {statuses}")
        clean_status = replies[0]["result"]["status"]

        stop_daemon(daemon, socket_path)

        # Phase 2: fresh daemon, same store -> served from disk.
        daemon = start_daemon(socket_path, store_dir)
        started = time.monotonic()
        with connect(socket_path) as client:
            warm = client.submit(VERIFY_JOB)["result"]
            stats = client.stats()
        hits = stats["store"]["hits"]
        misses = stats["cache"]["misses"]
        fraction = hits / max(1, hits + misses)
        print(f"warm rerun: {warm['status']} "
              f"({time.monotonic() - started:.1f}s) — store hits {hits}, "
              f"misses {misses}, served-from-store {fraction:.0%} "
              f"(loaded {stats['store']['loaded']})")
        if warm["status"] != clean_status:
            failures.append(f"warm verdict {warm['status']} != "
                            f"clean {clean_status}")
        if fraction < 0.9:
            failures.append(f"warm run served only {fraction:.0%} from the "
                            "persistent store (need >= 90%)")
        stop_daemon(daemon, socket_path)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("serve smoke OK: dedup and warm store hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
