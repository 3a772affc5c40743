"""Tracer, exporters and summarization (repro.obs)."""

import io
import json
import threading
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    load_trace,
    render_summary,
    summary_from_events,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


class TestSpans:
    def test_span_records_event(self):
        tracer = Tracer()
        with tracer.span("work", cat="mc", depth=3) as sp:
            sp.set(extra=1)
        events = tracer.snapshot_events()
        assert len(events) == 1
        (event,) = events
        assert event["type"] == "span"
        assert event["name"] == "work"
        assert event["cat"] == "mc"
        assert event["args"] == {"depth": 3, "extra": 1}
        assert event["dur"] >= 0

    def test_elapsed_valid_after_exit(self):
        tracer = Tracer()
        with tracer.span("w") as sp:
            time.sleep(0.01)
        assert 0.005 < sp.elapsed < 1.0

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                time.sleep(0.02)
        by_name = {e["name"]: e for e in tracer.snapshot_events()}
        parent, child = by_name["parent"], by_name["child"]
        assert parent["self"] <= parent["dur"] - child["dur"] + 1e-3
        assert child["self"] == pytest.approx(child["dur"])

    def test_thread_safety(self):
        tracer = Tracer()

        def worker():
            for _ in range(50):
                with tracer.span("t", cat="simu"):
                    tracer.count("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert tracer.counter_totals()["n"] == 200
        spans = [e for e in tracer.snapshot_events() if e["type"] == "span"]
        assert len(spans) == 200
        assert tracer.category_totals()["simu"] == pytest.approx(
            sum(e["dur"] for e in spans))


class TestBooks:
    def test_category_totals_match_the_trace_summary(self):
        tracer = _sample_tracer()
        with tracer.span("cegar.validate", cat="mc"):
            with tracer.span("cegar.analyze", cat="mc"):
                time.sleep(0.002)
        summary = summary_from_events(tracer.snapshot_events())
        assert tracer.category_totals() == summary.category_totals()
        assert tracer.counter_totals() == summary.counters

    def test_category_totals_per_thread(self):
        tracer = Tracer()

        def worker():
            with tracer.span("w", cat="simu"):
                time.sleep(0.002)

        with tracer.span("main", cat="simu"):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = [e for e in tracer.snapshot_events() if e["type"] == "span"]
        # The workers' spans are outermost on their own threads.
        assert tracer.category_totals()["simu"] == pytest.approx(
            sum(e["dur"] for e in spans))


class TestMetrics:
    def test_counter_totals(self):
        tracer = Tracer()
        tracer.count("sat.conflicts", 5)
        tracer.count("sat.conflicts", 2)
        tracer.count("other")
        assert tracer.counter_totals() == {"sat.conflicts": 7, "other": 1}

    def test_zero_count_not_recorded(self):
        tracer = Tracer()
        tracer.count("nothing", 0)
        assert len(tracer) == 0

    def test_gauge(self):
        tracer = Tracer()
        tracer.gauge("depth", 4)
        (event,) = tracer.snapshot_events()
        assert event["type"] == "gauge" and event["value"] == 4


class TestNullTracer:
    def test_singleton_disabled(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled

    def test_span_still_measures(self):
        with NULL_TRACER.span("x", cat="mc", depth=1) as sp:
            sp.set(ignored=True)
            time.sleep(0.01)
        assert sp.elapsed > 0.005

    def test_records_nothing(self):
        with NULL_TRACER.span("x"):
            pass
        NULL_TRACER.count("n", 5)
        NULL_TRACER.gauge("g", 1)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.counter_totals() == {}
        assert NULL_TRACER.category_totals() == {}
        assert NULL_TRACER.snapshot_events() == []

    def test_fresh_instance_keeps_books_without_events(self):
        tracer = NullTracer()
        with tracer.span("outer", cat="mc") as outer:
            with tracer.span("inner", cat="mc"):
                pass
            with tracer.span("frame", cat="engine") as frame:
                pass
        tracer.count("n", 5)
        tracer.count("n", 0)
        assert tracer.counter_totals() == {"n": 5}
        assert tracer.category_totals() == {"mc": outer.elapsed,
                                             "engine": frame.elapsed}
        assert len(tracer) == 0 and tracer.snapshot_events() == []
        assert tracer and not tracer.enabled
        assert (tracer or NULL_TRACER) is tracer

    def test_empty_tracer_is_truthy(self):
        # `config.trace or NULL_TRACER` must keep a fresh (empty) Tracer.
        assert Tracer()
        assert (Tracer() or NULL_TRACER).enabled


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("cegar.model-check", cat="mc", iteration=0):
        with tracer.span("bmc.frame", cat="engine", depth=0):
            tracer.count("sat.conflicts", 10)
        with tracer.span("bmc.frame", cat="engine", depth=1):
            tracer.count("sat.conflicts", 5)
    with tracer.span("cegar.replay", cat="simu"):
        pass
    tracer.gauge("depth", 2)
    return tracer


class TestExportRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            write_jsonl(tracer, handle)
        summary = load_trace(str(path))
        assert len(summary.spans) == 4
        assert summary.counters == {"sat.conflicts": 15}
        assert summary.gauges == {"depth": 2}

    def test_jsonl_timestamps_rebased(self, tmp_path):
        tracer = _sample_tracer()
        buf = io.StringIO()
        write_jsonl(tracer, buf)
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        spans = [e for e in events if e["type"] == "span"]
        assert all(0 <= e["ts"] < 60 for e in spans)

    def test_chrome_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.json"
        with open(path, "w") as handle:
            write_chrome_trace(tracer, handle)
        doc = json.loads(path.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"X", "C"}
        summary = load_trace(str(path))
        assert len(summary.spans) == 4
        # Chrome "C" events cannot distinguish counters from gauges, so
        # the gauge comes back as a counter after this round-trip.
        assert summary.counters == {"sat.conflicts": 15, "depth": 2}

    def test_chrome_counter_events_carry_running_totals(self):
        tracer = Tracer()
        tracer.count("n", 1)
        tracer.count("n", 2)
        buf = io.StringIO()
        write_chrome_trace(tracer, buf)
        values = [e["args"]["value"]
                  for e in json.loads(buf.getvalue())["traceEvents"]
                  if e["ph"] == "C"]
        assert values == [1, 3]

    def test_write_trace_dispatch(self, tmp_path):
        tracer = _sample_tracer()
        for fmt in ("jsonl", "chrome"):
            buf = io.StringIO()
            write_trace(tracer, buf, fmt)
            assert buf.getvalue()
        with pytest.raises(ValueError):
            write_trace(tracer, io.StringIO(), "protobuf")


class TestSummarize:
    def test_category_totals_skip_nested_same_cat(self):
        events = [
            {"type": "span", "name": "outer", "cat": "mc", "ts": 0.0,
             "dur": 1.0, "self": 0.5, "pid": 1, "tid": 1, "args": {}},
            {"type": "span", "name": "inner", "cat": "mc", "ts": 0.2,
             "dur": 0.5, "self": 0.5, "pid": 1, "tid": 1, "args": {}},
            {"type": "span", "name": "frame", "cat": "engine", "ts": 0.3,
             "dur": 0.2, "self": 0.2, "pid": 1, "tid": 1, "args": {}},
        ]
        cats = summary_from_events(events).category_totals()
        assert cats["mc"] == pytest.approx(1.0)       # inner not re-counted
        assert cats["engine"] == pytest.approx(0.2)   # different cat counts

    def test_self_time_reconstructed_from_nesting(self):
        events = [
            {"type": "span", "name": "p", "cat": None, "ts": 0.0, "dur": 1.0,
             "self": 1.0, "pid": 1, "tid": 1, "args": {}},
            {"type": "span", "name": "c", "cat": None, "ts": 0.1, "dur": 0.4,
             "self": 0.4, "pid": 1, "tid": 1, "args": {}},
        ]
        summary = summary_from_events(events)
        by_name = {s.name: s for s in summary.spans}
        assert by_name["p"].self_time == pytest.approx(0.6)
        assert by_name["c"].self_time == pytest.approx(0.4)

    def test_separate_tracks_do_not_nest(self):
        events = [
            {"type": "span", "name": "p", "cat": "mc", "ts": 0.0, "dur": 1.0,
             "self": 1.0, "pid": 1, "tid": 1, "args": {}},
            {"type": "span", "name": "w", "cat": "mc", "ts": 0.1, "dur": 0.9,
             "self": 0.9, "pid": 2, "tid": 1, "args": {}},
        ]
        summary = summary_from_events(events)
        assert summary.category_totals()["mc"] == pytest.approx(1.9)
        assert len(summary.tracks) == 2

    def test_render_summary_lists_top_spans_and_counters(self):
        summary = summary_from_events(_sample_tracer().snapshot_events())
        text = render_summary(summary, top=2)
        assert "phase totals" in text
        assert "bmc.frame" in text
        assert "sat.conflicts" in text
        assert "15" in text

    def test_by_name_sorted_by_self_time(self):
        rows = summary_from_events(
            _sample_tracer().snapshot_events()).by_name()
        self_times = [r[3] for r in rows]
        assert self_times == sorted(self_times, reverse=True)

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        summary = load_trace(str(path))
        assert summary.spans == [] and summary.wall == 0.0
