"""API-surface tests: result objects, helper methods, package exports."""

import pytest


class TestPackageExports:
    def test_top_level_subpackages_import(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            __import__(f"repro.{name}")

    def test_public_names_resolve(self):
        from repro import cegar, cores, formal, hdl, sim, taint

        for module in (cegar, cores, formal, hdl, sim, taint):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)


class TestResultHelpers:
    def test_solve_result_lit_true(self):
        from repro.formal.sat.solver import SolveResult, SolveStatus

        result = SolveResult(SolveStatus.SAT, model=[False, True, False])
        assert result.lit_true(1)
        assert not result.lit_true(-1)
        assert result.lit_true(-2)
        with pytest.raises(ValueError):
            SolveResult(SolveStatus.UNSAT).value(1)

    def test_bmc_result_found_cex(self):
        from repro.formal.bmc import BmcResult, BmcStatus

        assert BmcResult(BmcStatus.COUNTEREXAMPLE, 0).found_cex
        assert not BmcResult(BmcStatus.BOUND_REACHED, 5).found_cex

    def test_counterexample_length_validation(self):
        from repro.formal import Counterexample

        with pytest.raises(ValueError):
            Counterexample(3, [{}], {})

    def test_overhead_report_percentages(self):
        from repro.taint.metrics import OverheadReport

        report = OverheadReport("d", "s", base_gates=100, base_reg_bits=50,
                                inst_gates=400, inst_reg_bits=100)
        assert report.gate_overhead == pytest.approx(3.0)
        assert report.reg_bit_overhead == pytest.approx(1.0)
        assert "+300.0%" in report.row().replace(" ", "")

    def test_refinement_stats_row(self):
        from repro.cegar import RefinementStats

        stats = RefinementStats(counters={
            "cegar.counterexamples_eliminated": 3, "cegar.refinements": 7,
            "time.mc": 1.0, "time.simu": 2.0, "time.bt": 0.5, "time.gen": 0.25})
        row = stats.row("Core")
        assert "CEX=3" in row and "refinements=7" in row
        assert stats.total == pytest.approx(3.75)

    def test_cegar_result_secure_property(self):
        from repro.cegar import CegarStatus
        from repro.cegar.loop import CegarResult

        dummy = dict(task=None, scheme=None, design=None, prop=None, stats=None)
        assert CegarResult(CegarStatus.PROVED, **dummy).secure
        assert CegarResult(CegarStatus.BOUND_REACHED, **dummy).secure
        assert not CegarResult(CegarStatus.REAL_LEAK, **dummy).secure
        assert not CegarResult(CegarStatus.CORRELATION_ALERT, **dummy).secure

    def test_safety_property_with_extra_assumptions(self):
        from repro.formal import SafetyProperty

        prop = SafetyProperty("p", "bad", assumptions=("a",))
        extended = prop.with_extra_assumptions("b", "c")
        assert extended.assumptions == ("a", "b", "c")
        assert prop.assumptions == ("a",)

    def test_taint_sources_masks(self):
        from repro.taint import TaintSources

        sources = TaintSources(registers={"r": -1}, inputs={"x": 0b1010})
        assert sources.register_mask("r", 4) == 0xF
        assert sources.register_mask("other", 4) == 0
        assert sources.input_mask("x", 2) == 0b10

    def test_prune_report_row(self):
        from repro.cegar import PruneReport

        report = PruneReport(attempted=5, removed=2, kept=3, elapsed=0.1)
        assert "2/5" in report.row()
