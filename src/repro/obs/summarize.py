"""Trace summarization: where did the time go?

Loads a trace file written by :mod:`repro.obs.export` — either format,
auto-detected — and renders an aggregate view: top spans by self-time
(time in the span minus time in its children), per-category phase
totals (the Table-3 t_MC / t_Simu / t_BT / t_Gen split, recomputed from
the spans), and counter totals (SAT conflicts, cache hits, ...).

Used by ``python -m repro trace summarize <file>``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SpanRecord:
    """One loaded span, with nesting-derived self-time."""

    name: str
    cat: Optional[str]
    ts: float          # seconds since trace epoch
    dur: float         # seconds
    pid: int
    tid: int
    args: Dict = field(default_factory=dict)
    child_dur: float = 0.0
    cat_ancestors: frozenset = frozenset()

    @property
    def end(self) -> float:
        return self.ts + self.dur

    @property
    def self_time(self) -> float:
        return max(0.0, self.dur - self.child_dur)


@dataclass
class TraceSummary:
    spans: List[SpanRecord]
    counters: Dict[str, float]
    gauges: Dict[str, float]

    @property
    def tracks(self) -> List[Tuple[int, int]]:
        return sorted({(s.pid, s.tid) for s in self.spans})

    @property
    def wall(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.ts for s in self.spans)

    def by_name(self) -> List[Tuple[str, int, float, float]]:
        """(name, count, total dur, total self-time), self-time desc."""
        count: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_t: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            count[span.name] += 1
            total[span.name] += span.dur
            self_t[span.name] += span.self_time
        rows = [(name, count[name], total[name], self_t[name]) for name in count]
        rows.sort(key=lambda r: -r[3])
        return rows

    def category_totals(self) -> Dict[str, float]:
        """Total time per span category, counting only outermost spans.

        A span nested (in the same track) inside another span of the
        same category does not count again, so e.g. per-frame engine
        spans inside a model-checking phase span cannot double the
        phase total.
        """
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.cat and span.cat not in span.cat_ancestors:
                totals[span.cat] += span.dur
        return dict(totals)


def _link_nesting(spans: List[SpanRecord]) -> None:
    """Derive child durations / category ancestry from interval nesting."""
    by_track: Dict[Tuple[int, int], List[SpanRecord]] = defaultdict(list)
    for span in spans:
        by_track[(span.pid, span.tid)].append(span)
    for track in by_track.values():
        track.sort(key=lambda s: (s.ts, -s.dur))
        stack: List[SpanRecord] = []
        for span in track:
            while stack and stack[-1].end <= span.ts + 1e-9:
                stack.pop()
            if stack:
                parent = stack[-1]
                parent.child_dur += min(span.dur, max(0.0, parent.end - span.ts))
                span.cat_ancestors = parent.cat_ancestors | (
                    frozenset((parent.cat,)) if parent.cat else frozenset()
                )
            stack.append(span)


def _load_chrome(doc) -> TraceSummary:
    events = doc.get("traceEvents", doc) if isinstance(doc, dict) else doc
    spans: List[SpanRecord] = []
    last_counter: Dict[Tuple[int, str], float] = {}
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            spans.append(SpanRecord(
                name=str(event.get("name", "?")),
                cat=event.get("cat") if event.get("cat") != "span" else None,
                ts=float(event.get("ts", 0.0)) / 1e6,
                dur=float(event.get("dur", 0.0)) / 1e6,
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                args=dict(event.get("args") or {}),
            ))
        elif ph == "C":
            value = (event.get("args") or {}).get("value", 0)
            last_counter[(int(event.get("pid", 0)), str(event["name"]))] = float(value)
    # Chrome "C" events carry per-process running totals: the final
    # value per (pid, name) is that process's total; sum across pids.
    counters: Dict[str, float] = defaultdict(float)
    for (_pid, name), value in last_counter.items():
        counters[name] += value
    _link_nesting(spans)
    return TraceSummary(spans, dict(counters), {})


def _load_jsonl(lines: List[str]) -> TraceSummary:
    return summary_from_events(
        [json.loads(line) for line in lines if line.strip()]
    )


def summary_from_events(events: List[Dict]) -> TraceSummary:
    """Summarize live tracer events (no file round-trip).

    Accepts the plain event dicts of :meth:`repro.obs.Tracer
    .snapshot_events`; timestamps stay on the recording clock, which is
    fine for aggregation (only durations and relative order matter).
    """
    spans: List[SpanRecord] = []
    counters: Dict[str, float] = defaultdict(float)
    gauges: Dict[str, float] = {}
    for event in events:
        kind = event.get("type")
        if kind == "span":
            spans.append(SpanRecord(
                name=str(event["name"]),
                cat=event.get("cat"),
                ts=float(event["ts"]),
                dur=float(event["dur"]),
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                args=dict(event.get("args") or {}),
            ))
        elif kind == "counter":
            counters[str(event["name"])] += float(event["value"])
        elif kind == "gauge":
            gauges[str(event["name"])] = float(event["value"])
    _link_nesting(spans)
    return TraceSummary(spans, dict(counters), gauges)


def load_trace(path: str) -> TraceSummary:
    """Load a trace file, auto-detecting JSONL vs Chrome trace JSON."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        return TraceSummary([], {}, {})
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _load_chrome(doc)
    if isinstance(doc, list):
        return _load_chrome(doc)
    if isinstance(doc, dict) and doc.get("type"):
        # A single-line JSONL file parses as one event object.
        return _load_jsonl([text])
    return _load_jsonl(text.splitlines())


def render_summary(summary: TraceSummary, top: int = 15) -> str:
    """Human-readable aggregate of a loaded trace."""
    lines: List[str] = []
    lines.append(
        f"{len(summary.spans)} spans on {len(summary.tracks)} track(s), "
        f"wall {summary.wall:.2f}s"
    )

    cats = summary.category_totals()
    if cats:
        lines.append("")
        lines.append("phase totals (by span category):")
        for cat in sorted(cats, key=lambda c: -cats[c]):
            lines.append(f"  {cat:<10} {cats[cat]:8.3f}s")

    rows = summary.by_name()
    if rows:
        lines.append("")
        lines.append("top spans by self-time:")
        lines.append(f"  {'name':<32} {'count':>6} {'total':>9} {'self':>9}")
        for name, count, total, self_t in rows[:top]:
            lines.append(
                f"  {name:<32} {count:>6} {total:>8.3f}s {self_t:>8.3f}s"
            )
        if len(rows) > top:
            lines.append(f"  ... {len(rows) - top} more span name(s)")

    if summary.counters:
        lines.append("")
        lines.append("counter totals:")
        for name in sorted(summary.counters):
            value = summary.counters[name]
            shown = int(value) if value == int(value) else value
            lines.append(f"  {name:<32} {shown}")
    if summary.gauges:
        lines.append("")
        lines.append("gauges (last value):")
        for name in sorted(summary.gauges):
            lines.append(f"  {name:<32} {summary.gauges[name]}")
    return "\n".join(lines)


def summarize_file(path: str, top: int = 15) -> str:
    return render_summary(load_trace(path), top=top)
