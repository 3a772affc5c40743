"""Span-based tracing and metrics for verification runs.

The CEGAR loop's performance story (Table 3's t_MC / t_Simu / t_BT /
t_Gen breakdown, Figure 6's simulation overhead) needs more than four
accumulated floats to debug: *which* model-checking call was slow,
*which* refinement triggered the re-instrumentation storm, how many SAT
conflicts a frame cost.  This module provides the primitives:

- :class:`Tracer` — records hierarchical *spans* (named wall-clock
  intervals, nestable via context manager, thread-safe) plus *counter*
  and *gauge* metrics.  Events are plain dicts.
- :class:`NullTracer` — records no events.  Both keep running counter
  totals and the seconds per span category (outermost span of each
  category), so an untraced CEGAR run, given a fresh ``NullTracer()``,
  derives its Table-3 statistics from the same books as a traced one.
- :data:`NULL_TRACER` — the shared disabled instance.  Its spans only
  measure wall clock and it keeps nothing, so code called without a
  tracer pays two ``time.monotonic()`` calls per span.  Inner simulator
  and SAT propagation loops are never instrumented at all.

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

    def __init__(self, tracer: "_Books", name: str, cat: Optional[str],
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


class _Books:
    """Running counter totals and per-category span seconds, plus the
    event log when :attr:`enabled`.

    A span counts toward its category only when no enclosing span on
    the same thread has that category: the rule
    :meth:`repro.obs.summarize.TraceSummary.category_totals` applies to
    trace files, so a run's live totals equal those of its trace.

    Event shapes::

        {"type": "span", "name", "cat", "ts", "dur", "self",
         "pid", "tid", "args"}
        {"type": "counter", "name", "ts", "value", "pid", "tid"}
        {"type": "gauge", "name", "ts", "value", "pid", "tid"}
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._counters: Dict[str, float] = {}
        self._categories: Dict[str, float] = {}
        self._events: List[Dict[str, Any]] = []

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
        dur = span.end - span.start
        if stack:
            stack[-1]._child_dur += dur
        outermost = span.cat is not None and all(
            outer.cat != span.cat for outer in stack)
        with self._lock:
            if outermost:
                self._categories[span.cat] = (
                    self._categories.get(span.cat, 0.0) + dur)
            if self.enabled:
                self._events.append({
                    "type": "span", "name": span.name, "cat": span.cat,
                    "ts": span.start, "dur": dur,
                    "self": max(0.0, dur - span._child_dur),
                    "pid": os.getpid(), "tid": threading.get_ident(),
                    "args": span.args,
                })

    # -- metrics --------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Increment a counter (running totals are kept per name)."""
        if not value:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            if self.enabled:
                self._events.append({
                    "type": "counter", "name": name, "ts": time.monotonic(),
                    "value": value, "pid": os.getpid(),
                    "tid": threading.get_ident(),
                })

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous measurement (last value wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._events.append({
                "type": "gauge", "name": name, "ts": time.monotonic(),
                "value": value, "pid": os.getpid(),
                "tid": threading.get_ident(),
            })

    def counter_totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def category_totals(self) -> Dict[str, float]:
        """Seconds per span category, outermost spans only."""
        with self._lock:
            return dict(self._categories)

    def snapshot_events(self) -> List[Dict[str, Any]]:
        """A copy of the recorded events (plain data, pickles cleanly)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __bool__(self) -> bool:
        # An empty tracer is still a tracer: the ``config.trace or
        # NULL_TRACER`` idiom must not fall back to the shared null
        # tracer just because nothing has been recorded yet.
        return True


class Tracer(_Books):
    """Thread-safe span/counter/gauge recorder.

    Events are stored as plain dicts with *absolute* ``time.monotonic()``
    timestamps; exporters rebase them against :attr:`epoch`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.epoch = time.monotonic()

    # -- export convenience --------------------------------------------
    def export_jsonl(self, stream) -> None:
        from repro.obs.export import write_jsonl

        write_jsonl(self, stream)

    def export_chrome(self, stream) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, stream)


class NullTracer(_Books):
    """Disabled tracer: records no events, keeps the run's totals.

    A fresh instance per run gives an untraced run the same counter
    totals and category seconds a :class:`Tracer` would keep.
    """

    enabled = False
    epoch = 0.0


class _SharedNullTracer(NullTracer):
    """:data:`NULL_TRACER`: spans only measure and nothing is kept, so
    the one instance every untraced caller shares holds no run's state."""

    def _push(self, span: Span) -> None:
        pass

    def _pop(self, span: Span) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass


#: The shared disabled tracer; ``tracer or NULL_TRACER`` is the idiom
#: instrumented code uses when its caller passes no tracer.
NULL_TRACER = _SharedNullTracer()
