"""End-to-end CEGAR on the paper's Figure 2 example."""

import pytest

from repro.hdl import ModuleBuilder
from repro.taint import TaintSources
from repro.cegar import (
    CegarConfig,
    CegarStatus,
    TaintVerificationTask,
    run_compass,
)


def build_fig2(leaky: bool):
    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel23 = b.input("sel23", 1) if leaky else b.const(0, 1)
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pubs = []
        for i in range(1, 4):
            reg = b.reg(f"pub{i}", 4)
            reg.drive(reg)
            pubs.append(reg)
        o1 = b.named("o1", b.mux(sel1, secret, pubs[0]))
        o2 = b.named("o2", b.mux(sel23, o1, pubs[1]))
        o3 = b.named("o3", b.mux(sel23, o2, pubs[2]))
    b.output("sink", o3)
    return b.build()


def _task(circuit, name):
    return TaintVerificationTask(
        name=name,
        circuit=circuit,
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
    )


class TestFigure2:
    def test_safe_variant_is_proved(self):
        result = run_compass(_task(build_fig2(False), "fig2"),
                             CegarConfig(max_bound=6, induction_max_k=6, seed=0))
        assert result.status is CegarStatus.PROVED
        # Figure 2's story: open the blackbox, then refine downstream muxes.
        log = " ".join(result.stats.refinement_log)
        assert "open blackbox m" in log
        assert "word/naive -> word/partial" in log

    def test_safe_variant_counts(self):
        result = run_compass(_task(build_fig2(False), "fig2"),
                             CegarConfig(max_bound=6, induction_max_k=6, seed=0))
        assert result.stats.counterexamples_eliminated >= 1
        assert 1 <= result.stats.refinements <= 10

    def test_leaky_variant_reports_real_leak(self):
        result = run_compass(_task(build_fig2(True), "fig2-leaky"),
                             CegarConfig(max_bound=6, induction_max_k=6, seed=0))
        assert result.status is CegarStatus.REAL_LEAK
        assert result.leak is not None
        # The witness genuinely moves the secret to the sink.
        wf = result.leak.replay(build_fig2(True))
        changed = result.leak.with_initial_state(
            {"m.secret": result.leak.initial_state["m.secret"] ^ 0xF}
        ).replay(build_fig2(True))
        final = wf.length - 1
        assert wf.value("sink", final) != changed.value("sink", final)

    @pytest.mark.parametrize("leaky, status", [(False, CegarStatus.PROVED),
                                               (True, CegarStatus.REAL_LEAK)])
    def test_model_checker_counterexamples_without_the_prefilter(self, leaky, status):
        """Counterexamples come from BMC on the cone-reduced netlist,
        which leaves out ``m.secret`` whenever the property cannot read
        it; the fast false-taint test must still flip it."""
        result = run_compass(_task(build_fig2(leaky), "fig2"),
                             CegarConfig(max_bound=4, seed=0, sim_prefilter=False))
        assert result.status is status
        assert not any("register m.secret" in entry
                       for entry in result.stats.refinement_log)

    def test_deterministic_given_seed(self):
        r1 = run_compass(_task(build_fig2(False), "fig2"),
                         CegarConfig(max_bound=6, induction_max_k=6, seed=7))
        r2 = run_compass(_task(build_fig2(False), "fig2"),
                         CegarConfig(max_bound=6, induction_max_k=6, seed=7))
        assert r1.stats.refinement_log == r2.stats.refinement_log

    def test_final_scheme_is_lighter_than_cellift(self):
        from repro.cegar.loop import instrument_task
        from repro.taint import cellift_scheme, instrumentation_overhead

        task = _task(build_fig2(False), "fig2")
        result = run_compass(task, CegarConfig(max_bound=6, induction_max_k=6, seed=0))
        compass_design, _ = instrument_task(task, result.scheme)
        cellift_design, _ = instrument_task(task, cellift_scheme())
        compass = instrumentation_overhead(compass_design)
        cellift = instrumentation_overhead(cellift_design)
        assert compass.gate_overhead < cellift.gate_overhead
        assert compass.reg_bit_overhead < cellift.reg_bit_overhead
