"""Verification-as-a-service: an async job daemon over a unix socket.

``python -m repro serve --socket PATH --store DIR`` starts a long-lived
:class:`JobServer` that accepts verify/lint/analyze/simulate jobs over
a local unix socket (versioned JSON-lines protocol,
:mod:`repro.serve.protocol`), dedups in-flight requests by
circuit+property digest (a second submitter attaches to the first
job's future instead of re-running it), shards jobs onto a bounded
thread pool, streams progress events sampled from the :mod:`repro.obs`
tracer to subscribed clients,
and backs every verdict with the persistent solve store
(:mod:`repro.store`) so answers survive daemon restarts.

The thin client (:mod:`repro.serve.client`) is what the CLI's
``--remote`` flag uses; when the daemon is unreachable it degrades
gracefully to local in-process execution with a warning instead of
failing.  See ``docs/serving.md``.
"""

from repro.serve.client import (
    ServeClient,
    ServeJobError,
    ServeUnavailable,
    connect,
)
from repro.serve.jobs import JobError, job_digest, run_job
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)
from repro.serve.server import JobServer, ServeStats

__all__ = [
    "JobError",
    "JobServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeJobError",
    "ServeStats",
    "ServeUnavailable",
    "connect",
    "decode_message",
    "encode_message",
    "job_digest",
    "run_job",
]
