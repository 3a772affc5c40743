"""Span-based tracing and metrics for verification runs.

The CEGAR loop's performance story (Table 3's t_MC / t_Simu / t_BT /
t_Gen breakdown, Figure 6's simulation overhead) needs more than four
accumulated floats to debug: *which* model-checking call was slow,
*which* refinement triggered the re-instrumentation storm, how many SAT
conflicts a frame cost.  This module provides the primitives:

- :class:`Tracer` — records hierarchical *spans* (named wall-clock
  intervals, nestable via context manager, thread-safe) plus *counter*
  and *gauge* metrics.  Events are plain dicts; another tracer's
  events can be merged onto this timeline (:meth:`Tracer.adopt`), with
  their pid as the track id.
- :data:`NULL_TRACER` — the disabled singleton.  Its spans still
  measure wall clock (the CEGAR loop feeds span elapsed times into the
  Table-3 statistics either way) but record nothing, so tracing
  disabled costs two ``time.monotonic()`` calls per span and zero
  allocations beyond a tiny stopwatch object.  Inner simulator and SAT
  propagation loops are never instrumented at all.

Exporters live in :mod:`repro.obs.export` (JSONL and Chrome
trace-event JSON, loadable in Perfetto / ``about:tracing``);
:mod:`repro.obs.summarize` renders top-spans-by-self-time reports.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional


class Span:
    """One live span; use as a context manager.

    ``elapsed`` is valid after exit (and, mid-flight, reads the clock).
    ``set(key=value)`` attaches arguments shown in trace viewers.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "start", "end", "_child_dur")

    def __init__(self, tracer: "Tracer", name: str, cat: Optional[str],
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0
        self.end = 0.0
        self._child_dur = 0.0

    @property
    def elapsed(self) -> float:
        if self.end:
            return self.end - self.start
        return time.monotonic() - self.start

    def set(self, **args: Any) -> None:
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.start = time.monotonic()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.monotonic()
        self._tracer._pop(self)
        return False


class _Stopwatch:
    """The disabled tracer's span: measures wall clock, records nothing."""

    __slots__ = ("start", "end")

    @property
    def elapsed(self) -> float:
        if self.end:
            return self.end - self.start
        return time.monotonic() - self.start

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_Stopwatch":
        self.start = time.monotonic()
        self.end = 0.0
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.monotonic()
        return False


class Tracer:
    """Thread-safe span/counter/gauge recorder.

    Events are stored as plain dicts with *absolute* ``time.monotonic()``
    timestamps (``CLOCK_MONOTONIC`` is system-wide, so worker-process
    events recorded against the same clock merge onto one timeline);
    exporters rebase them against :attr:`epoch`.

    Event shapes::

        {"type": "span", "name", "cat", "ts", "dur", "self",
         "pid", "tid", "args"}
        {"type": "counter", "name", "ts", "value", "pid", "tid"}
        {"type": "gauge", "name", "ts", "value", "pid", "tid"}
        {"type": "meta", "pid", "label"}
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.monotonic()
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._counters: Dict[str, float] = {}

    # -- spans ----------------------------------------------------------
    def span(self, name: str, cat: Optional[str] = None, **args: Any) -> Span:
        return Span(self, name, cat, args)

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1]._child_dur += span.end - span.start
        dur = span.end - span.start
        event = {
            "type": "span", "name": span.name, "cat": span.cat,
            "ts": span.start, "dur": dur,
            "self": max(0.0, dur - span._child_dur),
            "pid": os.getpid(), "tid": threading.get_ident(),
            "args": span.args,
        }
        with self._lock:
            self._events.append(event)

    def add_span(self, name: str, cat: Optional[str], duration: float,
                 **args: Any) -> None:
        """Record a span whose duration was measured externally.

        Used to fold sub-phase timings that another component already
        measured (e.g. a refinement's generate/simulate split) into the
        trace; the span is backdated to end *now*.
        """
        now = time.monotonic()
        event = {
            "type": "span", "name": name, "cat": cat,
            "ts": now - duration, "dur": duration, "self": duration,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "args": dict(args),
        }
        with self._lock:
            self._events.append(event)

    # -- metrics --------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Increment a counter (running totals are kept per name)."""
        if not value:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            self._events.append({
                "type": "counter", "name": name, "ts": time.monotonic(),
                "value": value, "pid": os.getpid(),
                "tid": threading.get_ident(),
            })

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous measurement (last value wins)."""
        with self._lock:
            self._events.append({
                "type": "gauge", "name": name, "ts": time.monotonic(),
                "value": value, "pid": os.getpid(),
                "tid": threading.get_ident(),
            })

    def counter_totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    # -- cross-process merging -----------------------------------------
    def adopt(self, events: List[Dict[str, Any]]) -> None:
        """Merge events recorded by another tracer (e.g. a worker).

        Worker events carry the worker's own pid/tid, which become the
        track ids in the merged timeline; counter events are folded
        into this tracer's running totals.
        """
        if not events:
            return
        with self._lock:
            for event in events:
                if event.get("type") == "counter":
                    name = str(event["name"])
                    self._counters[name] = (
                        self._counters.get(name, 0) + event["value"]
                    )
            self._events.extend(events)

    def label_track(self, pid: int, label: str) -> None:
        """Give a process track a human-readable name in trace viewers."""
        with self._lock:
            self._events.append({"type": "meta", "pid": pid, "label": label})

    def snapshot_events(self) -> List[Dict[str, Any]]:
        """A copy of the recorded events (plain data, pickles cleanly)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __bool__(self) -> bool:
        # An empty tracer is still a tracer: the ``config.trace or
        # NULL_TRACER`` idiom must not fall back to the null tracer
        # just because nothing has been recorded yet.
        return True

    # -- export convenience --------------------------------------------
    def export_jsonl(self, stream) -> None:
        from repro.obs.export import write_jsonl

        write_jsonl(self, stream)

    def export_chrome(self, stream) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, stream)


class NullTracer:
    """Disabled tracer: spans only measure, nothing is recorded."""

    enabled = False
    epoch = 0.0

    def span(self, name: str, cat: Optional[str] = None, **args: Any) -> _Stopwatch:
        return _Stopwatch()

    def add_span(self, name: str, cat: Optional[str], duration: float,
                 **args: Any) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter_totals(self) -> Dict[str, float]:
        return {}

    def adopt(self, events) -> None:
        pass

    def label_track(self, pid: int, label: str) -> None:
        pass

    def snapshot_events(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer; ``config.trace or NULL_TRACER`` is the
#: idiom instrumented code uses.
NULL_TRACER = NullTracer()
