"""The asyncio job daemon behind ``python -m repro serve``.

One :class:`JobServer` owns a unix socket, a bounded thread pool of
job workers and (optionally) a persistent solve store.  The event loop
only shuffles messages; every job body runs on a worker thread.

Robustness posture:

- **Dedup**: submissions are keyed by :func:`repro.serve.jobs
  .job_digest`; a second client submitting an identical job document
  attaches to the running computation and receives the same result
  (marked ``dedup: true``).
- **Store**: verdicts write through the persistent store; the store is
  flushed after every completed job, so a daemon killed between jobs
  loses nothing.  A locked or corrupt store degrades to an in-memory
  cache with a warning — serving never depends on persistence.
- **Deadlines**: a per-job deadline caps the job's own time budgets
  before it starts; a deadline cannot be out-waited by a slow engine.
- **Progress**: clients that opt in receive ``progress`` events — one
  immediately on submit, then periodic samples of the job's
  :class:`~repro.obs.Tracer` (event count + counter totals).
- **Isolation**: a malformed message or job poisons only its own
  submission; the connection and the daemon keep serving.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.jobs import JobError, job_digest, run_job
from repro.serve.protocol import ProtocolError, decode_message, encode_message


@dataclass
class ServeStats:
    """Daemon-lifetime counters (the ``stats`` reply's ``serve`` block)."""

    connections: int = 0
    submitted: int = 0           # submissions accepted (incl. attachments)
    deduped: int = 0             # submissions served by attaching
    completed: int = 0           # jobs that produced a result
    failed: int = 0              # jobs that raised
    cancelled: int = 0           # submissions detached by cancel
    progress_events: int = 0     # progress messages sent
    protocol_errors: int = 0     # undecodable/invalid messages

    def row(self) -> str:
        return (
            f"serve: {self.submitted} submitted ({self.deduped} deduped), "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.cancelled} cancelled, "
            f"{self.progress_events} progress events"
        )


@dataclass
class _Submission:
    """One client's interest in a job."""

    writer: asyncio.StreamWriter
    msg_id: Any
    progress: bool
    attached: bool               # True when this submission deduped


@dataclass
class _Job:
    """One running computation, possibly shared by many submissions."""

    digest: str
    job: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    tracer: Any
    started: float
    subs: List[_Submission] = field(default_factory=list)


class JobServer:
    """Async job daemon over a local unix socket.

    Args:
        socket_path: where to listen (stale socket files are replaced).
        store_dir: optional persistent solve store directory; opened
            read-write at start, gracefully skipped when unavailable.
        workers: concurrent job threads (each may itself fan out into
            portfolio processes).
        default_deadline: per-job wall-clock cap in seconds applied
            when the submission does not carry its own.
        progress_interval: seconds between progress samples.
    """

    def __init__(
        self,
        socket_path: str,
        store_dir: Optional[str] = None,
        workers: int = 2,
        default_deadline: Optional[float] = None,
        progress_interval: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.socket_path = socket_path
        self.store_dir = store_dir
        self.workers = workers
        self.default_deadline = default_deadline
        self.progress_interval = progress_interval
        self.stats = ServeStats()
        self.store = None
        self.cache = None
        self._inflight: Dict[str, _Job] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._stopped: Optional[asyncio.Event] = None
        self._tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ---------------------------------------------------------

    def _open_store(self) -> None:
        """Attach the persistent store; degrade to in-memory on trouble.

        Both paths hand the worker pool a *thread-safe* cache: the
        store-backed adapter locks internally, and the in-memory
        fallback is a :class:`ThreadSafeSolveCache` — a plain
        :class:`SolveCache` would corrupt its LRU bookkeeping under
        ``workers >= 2``.
        """
        from repro.formal.cache import ThreadSafeSolveCache

        if self.store_dir is not None:
            from repro.store import SolveStore, StoreError, StoreLockedError

            try:
                self.store = SolveStore(self.store_dir)
                self.cache = self.store.cache()
                return
            except (StoreLockedError, StoreError, OSError) as exc:
                warnings.warn(
                    f"solve store {self.store_dir!r} unavailable ({exc}); "
                    "serving with an in-memory cache instead",
                    stacklevel=2,
                )
        self.cache = ThreadSafeSolveCache()

    async def start(self) -> None:
        import os

        self._open_store()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._stopped = asyncio.Event()
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path)

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain in-flight jobs, close the socket and the store."""
        if self._stopped is not None and self._stopped.is_set():
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Let running jobs finish so attached clients get their result,
        # then let their finisher/progress tasks deliver it.
        pending = [job.future for job in self._inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.store is not None:
            self.store.close()
            self.store = None
        if self._stopped is not None:
            self._stopped.set()

    def run(self) -> None:
        """Blocking helper: serve until a ``shutdown`` message arrives."""

        async def _main() -> None:
            await self.start()
            try:
                await self.wait_stopped()
            finally:
                if self._stopped is not None and not self._stopped.is_set():
                    await self.stop()

        asyncio.run(_main())

    # -- connection handling -----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    await self._send(writer, {"type": "error",
                                              "error": str(exc)})
                    continue
                if not await self._dispatch(msg, writer):
                    break
        finally:
            self._detach_writer(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    msg: Dict[str, Any]) -> None:
        try:
            writer.write(encode_message(msg))
            await writer.drain()
        except (ConnectionError, OSError):
            self._detach_writer(writer)

    def _detach_writer(self, writer: asyncio.StreamWriter) -> None:
        """Forget a gone client's subscriptions (jobs keep running:
        another submitter may be attached, and the verdict still lands
        in the store either way)."""
        for job in self._inflight.values():
            job.subs = [s for s in job.subs if s.writer is not writer]

    # -- message dispatch ---------------------------------------------------

    async def _dispatch(self, msg: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one message; returns False to end the connection."""
        mtype = msg["type"]
        if mtype == "ping":
            await self._send(writer, {"type": "pong"})
            return True
        if mtype == "stats":
            await self._send(writer, {"type": "stats",
                                      "stats": self.snapshot_stats()})
            return True
        if mtype == "shutdown":
            await self._send(writer, {"type": "bye"})
            await self.stop()
            return False
        if mtype == "cancel":
            self._cancel(msg.get("id"), writer)
            return True
        if mtype == "submit":
            await self._submit(msg, writer)
            return True
        self.stats.protocol_errors += 1
        await self._send(writer, {
            "type": "error", "id": msg.get("id"),
            "error": f"server cannot handle message type {mtype!r}",
        })
        return True

    def _cancel(self, msg_id: Any, writer: asyncio.StreamWriter) -> None:
        for job in self._inflight.values():
            before = len(job.subs)
            job.subs = [s for s in job.subs
                        if not (s.writer is writer and s.msg_id == msg_id)]
            self.stats.cancelled += before - len(job.subs)

    async def _submit(self, msg: Dict[str, Any],
                      writer: asyncio.StreamWriter) -> None:
        msg_id = msg.get("id")
        job_doc = msg.get("job")
        try:
            if not isinstance(job_doc, dict):
                raise JobError("submit needs a 'job' object")
            digest = job_digest(job_doc)
        except JobError as exc:
            self.stats.protocol_errors += 1
            await self._send(writer, {"type": "error", "id": msg_id,
                                      "error": str(exc)})
            return
        self.stats.submitted += 1
        deadline = msg.get("deadline")
        if deadline is None:
            deadline = self.default_deadline
        wants_progress = bool(msg.get("progress"))

        job = self._inflight.get(digest)
        attached = job is not None
        if job is None:
            job = self._launch(digest, job_doc, deadline)
        else:
            self.stats.deduped += 1
        sub = _Submission(writer=writer, msg_id=msg_id,
                          progress=wants_progress, attached=attached)
        job.subs.append(sub)
        if wants_progress:
            # First event immediately: a subscriber always sees >= 1
            # progress message, however fast the job is.
            await self._send_progress(job, only=sub)

    def _launch(self, digest: str, job_doc: Dict[str, Any],
                deadline: Optional[float]) -> _Job:
        from repro.obs import Tracer

        assert self._pool is not None, "start() first"
        loop = asyncio.get_running_loop()
        tracer = Tracer()
        future = loop.run_in_executor(
            self._pool, self._execute, job_doc, tracer, deadline)
        job = _Job(digest=digest, job=job_doc, future=future,
                   tracer=tracer, started=time.monotonic())
        self._inflight[digest] = job
        finisher = asyncio.ensure_future(self._finish(job))
        self._tasks.add(finisher)
        finisher.add_done_callback(self._tasks.discard)
        ticker = asyncio.ensure_future(self._progress_loop(job))
        self._tasks.add(ticker)
        ticker.add_done_callback(self._tasks.discard)
        return job

    def _execute(self, job_doc: Dict[str, Any], tracer,
                 deadline: Optional[float]) -> Dict[str, Any]:
        """Worker-thread body: run the job against the shared cache."""
        return run_job(job_doc, cache=self.cache, tracer=tracer,
                       deadline=deadline)

    # -- completion / progress ---------------------------------------------

    async def _finish(self, job: _Job) -> None:
        try:
            result = await job.future
            ok, payload = True, result
        except JobError as exc:
            ok, payload = False, str(exc)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        finally:
            self._inflight.pop(job.digest, None)
        if ok:
            self.stats.completed += 1
        else:
            self.stats.failed += 1
        if self.store is not None:
            # Durability point: everything this job decided is on disk
            # before any client sees the verdict.  Safe to call from
            # the event loop while workers append through the cache:
            # the store serializes flush/append on its own mutex.
            self.store.flush()
        elapsed = round(time.monotonic() - job.started, 3)
        for sub in job.subs:
            if ok:
                await self._send(sub.writer, {
                    "type": "result", "id": sub.msg_id, "ok": True,
                    "result": payload, "dedup": sub.attached,
                    "elapsed": elapsed,
                })
            else:
                await self._send(sub.writer, {
                    "type": "error", "id": sub.msg_id, "error": payload,
                })

    async def _send_progress(self, job: _Job,
                             only: Optional[_Submission] = None) -> None:
        msg = {
            "type": "progress",
            "elapsed": round(time.monotonic() - job.started, 3),
            "events": len(job.tracer),
            "counters": job.tracer.counter_totals(),
        }
        targets = [only] if only is not None else [
            s for s in job.subs if s.progress]
        for sub in targets:
            self.stats.progress_events += 1
            await self._send(sub.writer, dict(msg, id=sub.msg_id))

    async def _progress_loop(self, job: _Job) -> None:
        while not job.future.done():
            try:
                await asyncio.wait_for(asyncio.shield(job.future),
                                       timeout=self.progress_interval)
            except asyncio.TimeoutError:
                await self._send_progress(job)
            except Exception:
                return  # _finish reports the failure

    # -- observability ------------------------------------------------------

    def snapshot_stats(self) -> Dict[str, Any]:
        """JSON-able counters: serve + cache + store blocks."""
        doc: Dict[str, Any] = {
            "serve": asdict(self.stats),
            "inflight": len(self._inflight),
            "workers": self.workers,
        }
        if self.cache is not None:
            cs = self.cache.stats
            doc["cache"] = {
                "hits": cs.hits, "misses": cs.misses, "stores": cs.stores,
                "evictions": cs.evictions, "rejected": cs.rejected,
            }
        if self.store is not None:
            doc["store"] = asdict(self.store.stats)
        return doc
