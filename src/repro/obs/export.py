"""Trace exporters: JSONL structured events and Chrome trace-event JSON.

Two formats, one event model (see :class:`repro.obs.tracer.Tracer`):

- **JSONL** — one JSON object per line, timestamps rebased to seconds
  since the tracer epoch.  Greppable, streamable, the format
  ``python -m repro trace summarize`` prefers.
- **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` document
  understood by Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing``.  Spans become ``"X"`` complete events (microsecond
  units), counters become ``"C"`` events carrying running totals, and
  process tracks are labelled with ``"M"`` metadata events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, TextIO

#: Format names accepted by the CLI and :func:`write_trace`.
FORMATS = ("jsonl", "chrome")


def _rebased(events: Iterable[Dict[str, Any]], epoch: float) -> List[Dict[str, Any]]:
    """Copy events with timestamps rebased to seconds since ``epoch``."""
    out = []
    for event in events:
        event = dict(event)
        if "ts" in event:
            event["ts"] = event["ts"] - epoch
        out.append(event)
    return out


def write_jsonl(tracer, stream: TextIO) -> None:
    """Write the tracer's events as one JSON object per line."""
    for event in _rebased(tracer.snapshot_events(), tracer.epoch):
        stream.write(json.dumps(event, sort_keys=True, default=str))
        stream.write("\n")


def write_chrome_trace(tracer, stream: TextIO) -> None:
    """Write a Chrome trace-event document (open in Perfetto)."""
    trace_events: List[Dict[str, Any]] = []
    running: Dict[tuple, float] = {}  # (pid, name) -> running counter total
    events = sorted(
        _rebased(tracer.snapshot_events(), tracer.epoch),
        key=lambda e: e.get("ts", 0.0),
    )
    for event in events:
        kind = event.get("type")
        if kind == "span":
            trace_events.append({
                "name": event["name"],
                "cat": event.get("cat") or "span",
                "ph": "X",
                "ts": round(event["ts"] * 1e6, 3),
                "dur": round(event["dur"] * 1e6, 3),
                "pid": event["pid"],
                "tid": event["tid"],
                "args": event.get("args") or {},
            })
        elif kind == "counter":
            key = (event["pid"], event["name"])
            running[key] = running.get(key, 0) + event["value"]
            trace_events.append({
                "name": event["name"],
                "ph": "C",
                "ts": round(event["ts"] * 1e6, 3),
                "pid": event["pid"],
                "tid": event["tid"],
                "args": {"value": running[key]},
            })
        elif kind == "gauge":
            trace_events.append({
                "name": event["name"],
                "ph": "C",
                "ts": round(event["ts"] * 1e6, 3),
                "pid": event["pid"],
                "tid": event["tid"],
                "args": {"value": event["value"]},
            })
    json.dump({"traceEvents": trace_events, "displayTimeUnit": "ms"},
              stream, default=str)
    stream.write("\n")


def write_trace(tracer, stream: TextIO, fmt: str = "chrome") -> None:
    """Dispatch on format name (``jsonl`` or ``chrome``)."""
    if fmt == "jsonl":
        write_jsonl(tracer, stream)
    elif fmt == "chrome":
        write_chrome_trace(tracer, stream)
    else:
        raise ValueError(f"unknown trace format {fmt!r} (expected one of {FORMATS})")


def write_trace_file(tracer, path: str, fmt: str = "chrome") -> None:
    """Write a trace to ``path`` atomically (write-tmp-then-rename).

    A crash mid-export never leaves a truncated trace under ``path``.
    """
    from repro.ioutil import atomic_write

    if fmt not in FORMATS:  # validate before touching the filesystem
        raise ValueError(f"unknown trace format {fmt!r} (expected one of {FORMATS})")
    with atomic_write(path) as handle:
        write_trace(tracer, handle, fmt)
