"""Traced CEGAR runs: the observability acceptance checks.

The Table-3 statistics are a view of the run's tracer, so on a traced
run they agree with the trace exactly: t_MC / t_Simu / t_BT / t_Gen
equal the trace's ``mc`` / ``simu`` / ``bt`` / ``gen`` category totals,
every counter of ``RefinementStats.counters`` equals the tracer's, and
a resumed run's statistics are the restored counters plus its own
trace.  Every portfolio engine that ran has its span, and the CLI
round-trips a trace file through ``trace summarize``.
"""

import json
import os
from collections import Counter

import pytest

from repro.cegar import CegarConfig, CheckpointJournal, run_compass
from repro.cegar.loop import TIME_PREFIX
from repro.cli import main
from repro.contracts import make_contract_task
from repro.cores import CoreConfig, build_sodor
from repro.obs import Tracer, summary_from_events

TINY = CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)
KNOBS = dict(max_bound=4, mc_time_limit=10, total_time_limit=120,
             max_refinements=120, seed=0, induction_max_k=8)


def _books(tracer):
    """A tracer's totals in the shape of ``RefinementStats.counters``."""
    books = dict(tracer.counter_totals())
    books.update((TIME_PREFIX + cat, seconds)
                 for cat, seconds in tracer.category_totals().items())
    return books


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    return str(tmp_path_factory.mktemp("journal"))


@pytest.fixture(scope="module")
def traced_run(journal):
    task = make_contract_task(build_sodor(TINY))
    tracer = Tracer()
    result = run_compass(task, CegarConfig(**KNOBS, trace=tracer),
                         checkpoint_dir=journal)
    return result, tracer


@pytest.fixture(scope="module")
def resumed_run(traced_run, journal):
    """Resume the traced run from the middle of its journal."""
    entries = CheckpointJournal(journal).entries()
    middle = entries[len(entries) // 2][0]
    for index, path in entries:
        if index > middle:
            os.unlink(path)
    restored = CheckpointJournal(journal).latest()
    tracer = Tracer()
    result = run_compass(make_contract_task(build_sodor(TINY)),
                         CegarConfig(**KNOBS, trace=tracer),
                         checkpoint_dir=journal, resume=True)
    return restored, result, tracer


class TestStatsAgreement:
    """The Table-3 statistics are the trace's own totals."""

    def test_phase_totals_match_trace(self, traced_run):
        result, tracer = traced_run
        stats = result.stats
        cats = summary_from_events(tracer.snapshot_events()).category_totals()
        expected = {"mc": stats.t_mc, "simu": stats.t_simu,
                    "bt": stats.t_bt, "gen": stats.t_gen}
        for cat, stat in expected.items():
            assert stat > 0.0, cat
            assert cats.get(cat, 0.0) == pytest.approx(stat, abs=1e-6), cat

    def test_expected_span_names_present(self, traced_run):
        _, tracer = traced_run
        names = {e["name"] for e in tracer.snapshot_events()
                 if e["type"] == "span"}
        assert "cegar.instrument" in names
        assert "cegar.model-check" in names
        assert "cegar.sim-prefilter" in names

    def test_refinement_counter_matches_stats(self, traced_run):
        result, tracer = traced_run
        stats = result.stats
        assert stats.counters == _books(tracer)
        totals = tracer.counter_totals()
        assert totals["cegar.refinements"] == stats.refinements > 0
        assert (totals["cegar.counterexamples_eliminated"]
                == stats.counterexamples_eliminated > 0)
        assert totals["cegar.checkpoints"] == stats.count("cegar.checkpoints")

    def test_resumed_stats_are_restored_plus_trace(self, resumed_run):
        restored, result, tracer = resumed_run
        assert result.stats.resumed_from == restored.iteration
        before, during = restored.stats.counters, _books(tracer)
        assert set(result.stats.counters) == set(before) | set(during)
        for name, value in result.stats.counters.items():
            assert value == pytest.approx(
                before.get(name, 0) + during.get(name, 0), abs=1e-6), name

    def test_sat_counters_recorded_when_mc_ran(self, traced_run):
        result, tracer = traced_run
        if result.stats.t_mc < 0.5:
            pytest.skip("model checker barely ran")
        totals = tracer.counter_totals()
        assert totals.get("sat.propagations", 0) > 0


class TestPortfolioTrace:
    def test_one_engine_span_per_engine_that_ran(self, monkeypatch):
        import repro.cegar.speculate as speculate

        results = []
        real = speculate.verify_portfolio

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(speculate, "verify_portfolio", recording)
        task = make_contract_task(build_sodor(TINY))
        tracer = Tracer()
        result = run_compass(task, CegarConfig(
            **KNOBS, engine="portfolio", trace=tracer))
        assert result.stats.counters["portfolio.calls"] == len(results) > 0
        lineup = {report.engine for call in results for report in call.reports}
        assert {name for name, _s, _w in result.stats.engines()} == lineup
        ran = Counter(report.engine for call in results
                      for report in call.reports
                      if report.status not in ("not_run", "cached"))
        spans = Counter(event["args"]["engine"]
                        for event in tracer.snapshot_events()
                        if event["type"] == "span"
                        and event["name"] == "portfolio.engine")
        assert ran and spans == ran
        totals = tracer.counter_totals()
        assert (totals.get("solve_cache.misses", 0)
                + totals.get("solve_cache.hits", 0)
                + totals.get("solve_cache.memo_hits", 0)) > 0


class TestCliTrace:
    TINY_ARGS = ["--core", "Sodor", "--xlen", "4", "--imem", "4",
                 "--dmem", "4", "--secret-words", "1"]

    @pytest.fixture(scope="class")
    def trace_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        chrome = tmp / "trace.json"
        report = tmp / "report.md"
        code = main([
            "verify", *self.TINY_ARGS, "--budget", "60", "--max-bound", "4",
            "--testing-only",
            "--trace", str(chrome), "--report", str(report),
        ])
        return code, chrome, report

    def test_verify_exits_clean(self, trace_files):
        code, _, _ = trace_files
        assert code == 0

    def test_chrome_trace_is_valid_perfetto_document(self, trace_files):
        _, chrome, _ = trace_files
        doc = json.loads(chrome.read_text())
        assert "traceEvents" in doc
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_summarize_exits_zero(self, trace_files, capsys):
        _, chrome, _ = trace_files
        assert main(["trace", "summarize", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "phase totals" in out
        assert "top spans by self-time" in out

    def test_report_has_time_breakdown(self, trace_files):
        _, _, report = trace_files
        text = report.read_text()
        assert "## Where did the time go" in text

    def test_jsonl_format(self, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "verify", *self.TINY_ARGS, "--budget", "30", "--max-bound", "3",
            "--testing-only", "--max-refinements", "20",
            "--trace", str(jsonl), "--trace-format", "jsonl",
        ])
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert lines and all("type" in event for event in lines)
        assert main(["trace", "summarize", str(jsonl)]) == 0

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "not-a-trace.json"
        bad.write_text("{]")
        code = main(["trace", "summarize", str(bad)])
        # Garbage JSON parses as neither format -> JSONL line parse error.
        assert code == 2
