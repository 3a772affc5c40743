"""Backtracing (Algorithm 1) and the refinement strategy (Figure 4)."""

import contextlib
from dataclasses import replace

import pytest

from repro.hdl import ModuleBuilder
from repro.formal import Counterexample
from repro.taint import TaintScheme, TaintSources, blackbox_scheme, instrument
from repro.taint.space import Complexity, Granularity, TaintOption
from repro.cegar import (
    CorrelationImprecisionAlert,
    LocationKind,
    apply_refinement,
    find_refinement_location,
)
from repro.cegar.falsetaint import FastFalseTaintOracle, SecretSpec


def _fig2_circuit(module=None):
    """Figure 2: three muxes; mux2/mux3 select public constantly.

    With ``module``, the registers and muxes sit inside that submodule.
    """
    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel23 = b.const(0, 1)
    with b.scope(module) if module else contextlib.nullcontext():
        sec = b.reg("secret", 4)
        sec.drive(sec)
        pub1 = b.reg("pub1", 4)
        pub1.drive(pub1)
        pub2 = b.reg("pub2", 4)
        pub2.drive(pub2)
        pub3 = b.reg("pub3", 4)
        pub3.drive(pub3)
        o1 = b.named("o1", b.mux(sel1, sec, pub1))
        o2 = b.named("o2", b.mux(sel23, o1, pub2))
        o3 = b.named("o3", b.mux(sel23, o2, pub3))
    b.output("sink", o3)
    return b.build()


def _setup(scheme=None):
    circ = _fig2_circuit()
    sources = TaintSources(registers={"secret": -1})
    scheme = scheme or TaintScheme("word-naive")
    design = instrument(circ, scheme, sources)
    cex = Counterexample(1, [{"sel1": 1}], {"secret": 9, "pub1": 1, "pub2": 2, "pub3": 3})
    waveform = cex.replay(design.circuit)
    oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0xF}))
    return circ, sources, scheme, design, cex, waveform, oracle


class TestBacktrace:
    def test_finds_a_mux_on_the_false_path(self):
        circ, sources, scheme, design, cex, wf, oracle = _setup()
        # sink is falsely tainted (mux2/mux3 select public)
        assert wf.value(design.taint_name["sink"], 0) == 1
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        assert loc.kind is LocationKind.CELL
        # the imprecision is at mux2 or mux3 (o2 or o3), never at mux1
        assert loc.name in ("o2", "o3", "_mux2", "_mux3") or "mux" in loc.name

    def test_does_not_trace_into_unobservable_inputs(self):
        """With sel=0 the tainted arm o1/o2 is selected away; tracing must
        not walk into pub inputs that are not falsely tainted."""
        circ, sources, scheme, design, cex, wf, oracle = _setup()
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        # location signal must itself be falsely tainted
        assert oracle.is_falsely_tainted(loc.signal, loc.cycle)

    def test_blackbox_location_is_module(self):
        circ = _fig2_circuit()
        # wrap: blackbox everything produced at top level? modules: none here,
        # so build a scoped variant instead
        b = ModuleBuilder("boxy")
        x = b.input("x", 4)
        with b.scope("box"):
            sec = b.reg("secret", 4)
            sec.drive(sec)
            o = b.named("o", sec & x)
        b.output("sink", o)
        circ = b.build()
        sources = TaintSources(registers={"box.secret": -1})
        scheme = blackbox_scheme({"box"})
        design = instrument(circ, scheme, sources)
        cex = Counterexample(1, [{"x": 0}], {"box.secret": 5})
        wf = cex.replay(design.circuit)
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"box.secret": 0xF}))
        # x == 0 makes the AND output constant 0: falsely tainted sink
        assert wf.value(design.taint_name["sink"], 0) == 1
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        assert loc.kind is LocationKind.MODULE
        assert loc.name == "box"


class TestRefine:
    def test_refines_cheapest_working_option(self):
        circ, sources, scheme, design, cex, wf, oracle = _setup()
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        outcome = apply_refinement(circ, sources, scheme, design, loc, cex)
        applied = outcome.scheme.cell_options[loc.name]
        assert applied.complexity is Complexity.PARTIAL  # cheapest that cuts
        assert applied.granularity is Granularity.WORD
        # the local flip worked
        assert outcome.waveform.value(
            outcome.design.taint_name[loc.signal], loc.cycle
        ) == 0

    def test_module_refinement_opens_blackbox(self):
        b = ModuleBuilder("boxy")
        x = b.input("x", 4)
        with b.scope("box"):
            sec = b.reg("secret", 4)
            sec.drive(sec)
            o = b.named("o", sec & x)
        b.output("sink", o)
        circ = b.build()
        sources = TaintSources(registers={"box.secret": -1})
        scheme = blackbox_scheme({"box"})
        design = instrument(circ, scheme, sources)
        cex = Counterexample(1, [{"x": 0}], {"box.secret": 5})
        wf = cex.replay(design.circuit)
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"box.secret": 0xF}))
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        outcome = apply_refinement(circ, sources, scheme, design, loc, cex)
        assert "box" not in outcome.scheme.blackboxes

    def test_correlation_alert_when_nothing_helps(self):
        """Correlation-based imprecision: sink = (s & a) | (~s & a) == a
        regardless of s; per-cell refinement cannot untaint it when a is
        public but s is secret-derived... construct the classic case."""
        b = ModuleBuilder("corr")
        sec = b.reg("secret", 1)
        sec.drive(sec)
        a = b.reg("a", 1)
        a.drive(a)
        left = b.named("left", sec & a)
        right = b.named("right", (~sec) & a)
        b.output("sink", left | right)  # == a, but both sides look tainted
        circ = b.build()
        sources = TaintSources(registers={"secret": -1})
        scheme = TaintScheme("bit-full",
                             default=TaintOption(Granularity.BIT, Complexity.FULL))
        design = instrument(circ, scheme, sources)
        cex = Counterexample(1, [{}], {"secret": 1, "a": 1})
        wf = cex.replay(design.circuit)
        assert wf.value(design.taint_name["sink"], 0) == 1  # falsely tainted
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 1}))
        loc = find_refinement_location(design, wf, oracle, "sink", cycle=0)
        with pytest.raises(CorrelationImprecisionAlert):
            apply_refinement(circ, sources, scheme, design, loc, cex)


class TestRefinementReuse:
    """The CEGAR loop keeps the design and waveform each refinement
    built; both must equal a fresh instrumentation and replay."""

    def test_every_step_matches_a_fresh_build(self, monkeypatch):
        from repro.cegar import loop
        from repro.formal.cache import circuit_fingerprint

        task = loop.TaintVerificationTask(
            name="fig2",
            circuit=_fig2_circuit("m"),
            sources=TaintSources(registers={"m.secret": -1}),
            sinks=("sink",),
            symbolic_registers=frozenset(
                {"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
        )
        kinds = []
        real = loop.apply_refinement

        def checked(circuit, sources, scheme, design, location, cex,
                    **kwargs):
            outcome = real(circuit, sources, scheme, design, location, cex,
                           **kwargs)
            # The loop attaches the property to outcome.design in place;
            # check on a copy so the run itself is left untouched.
            kept = replace(outcome.design,
                           circuit=outcome.design.circuit.clone())
            kept_prop = loop.attach_property(task, kept)
            fresh, fresh_prop = loop.instrument_task(task, outcome.scheme)
            assert (circuit_fingerprint(kept.circuit)
                    == circuit_fingerprint(fresh.circuit))
            assert kept_prop == fresh_prop
            replayed = cex.replay(fresh.circuit)
            wf = outcome.waveform
            assert wf.length == replayed.length
            assert set(wf.signal_names) == set(outcome.design.circuit.signals)
            for name in wf.signal_names:
                assert wf.trace(name) == replayed.trace(name), name
            kinds.append(location.kind)
            return outcome

        monkeypatch.setattr(loop, "apply_refinement", checked)
        result = loop.run_compass(
            task, loop.CegarConfig(max_bound=6, induction_max_k=6, seed=0))
        assert result.status is loop.CegarStatus.PROVED
        assert LocationKind.MODULE in kinds and LocationKind.CELL in kinds
        fresh, fresh_prop = loop.instrument_task(task, result.scheme)
        assert (circuit_fingerprint(result.design.circuit)
                == circuit_fingerprint(fresh.circuit))
        assert result.prop == fresh_prop
