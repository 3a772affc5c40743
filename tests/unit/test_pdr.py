"""IC3/PDR engine tests."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hdl import ModuleBuilder
from repro.formal import SafetyProperty
from repro.formal.certificate import Certificate, check_certificate
from repro.formal.pdr import PdrStatus, pdr_prove


def wrap_counter(limit=3, width=4, bad_at=9):
    b = ModuleBuilder("wrap")
    en = b.input("en", 1)
    c = b.reg("cnt", width)
    c.drive(b.mux(c.eq(limit), b.const(0, width), c + 1), en=en)
    b.output("bad", c.eq(bad_at))
    return b.build()


def plain_counter(bad_at=5, width=4):
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    c = b.reg("cnt", width)
    c.drive(c + 1, en=en)
    b.output("bad", c.eq(bad_at))
    return b.build()


class TestProofs:
    def test_proves_wrap_invariant(self):
        res = pdr_prove(wrap_counter(), SafetyProperty("p", "bad"), time_limit=30)
        assert res.status is PdrStatus.PROVED
        assert len(res.invariant_clauses) > 0

    def test_proves_where_k_induction_struggles(self):
        """A property that is not 1-inductive: two lockstep counters stay
        equal only from the reset states."""
        b = ModuleBuilder("pair")
        a = b.reg("a", 3)
        c = b.reg("c", 3)
        a.drive(a + 1)
        c.drive(c + 1)
        b.output("bad", a.ne(c))
        res = pdr_prove(b.build(), SafetyProperty("p", "bad"), time_limit=30)
        assert res.status is PdrStatus.PROVED

    def test_assumptions_respected(self):
        b = ModuleBuilder("asm")
        en = b.input("en", 1)
        r = b.reg("r", 1)
        r.drive(r | en)
        b.output("bad", r)
        b.output("en_low", ~en)
        res = pdr_prove(b.build(), SafetyProperty("p", "bad", assumptions=("en_low",)),
                        time_limit=30)
        assert res.status is PdrStatus.PROVED

    def test_taint_property_on_fig2(self):
        """The refined Figure 2 scheme is provable unboundedly by PDR."""
        from repro.taint import (Complexity, Granularity, TaintOption,
                                 TaintScheme, TaintSources, instrument)

        b = ModuleBuilder("fig2")
        sel1 = b.input("sel1", 1)
        sel23 = b.const(0, 1)
        sec = b.reg("secret", 4)
        sec.drive(sec)
        pub = b.reg("pub", 4)
        pub.drive(pub)
        o1 = b.named("o1", b.mux(sel1, sec, pub))
        o2 = b.named("o2", b.mux(sel23, o1, pub))
        b.output("sink", o2)
        circ = b.build()
        scheme = TaintScheme("refined")
        # "o2" is a BUF alias; refine the mux cell feeding it.
        mux_out = circ.producer(circ.signal("o2")).ins[0].name
        scheme.refine_cell(mux_out, TaintOption(Granularity.WORD, Complexity.PARTIAL))
        design = instrument(circ, scheme, TaintSources(registers={"secret": -1}))
        bad = design.add_taint_monitor(["sink"])
        prop = SafetyProperty("p", bad, symbolic_registers=frozenset({"secret", "pub"}))
        res = pdr_prove(design.circuit, prop, time_limit=60)
        assert res.status is PdrStatus.PROVED


class TestCertificates:
    """Every PROVED run exports an invariant the independent checker
    validates from a fresh encoding."""

    def test_wrap_counter_certificate_checks(self):
        circ = wrap_counter()
        prop = SafetyProperty("p", "bad")
        res = pdr_prove(circ, prop, time_limit=30)
        assert res.status is PdrStatus.PROVED
        assert res.certificate is not None
        check = check_certificate(circ, prop, res.certificate)
        assert check.ok, check.reason
        assert check.clauses_checked == len(res.certificate.clauses)

    def test_lockstep_certificate_checks(self):
        b = ModuleBuilder("pair")
        a = b.reg("a", 3)
        c = b.reg("c", 3)
        a.drive(a + 1)
        c.drive(c + 1)
        b.output("bad", a.ne(c))
        circ = b.build()
        prop = SafetyProperty("p", "bad")
        res = pdr_prove(circ, prop, time_limit=30)
        assert res.status is PdrStatus.PROVED
        check = check_certificate(circ, prop, res.certificate)
        assert check.ok, check.reason

    def test_certificate_with_assumptions_checks(self):
        b = ModuleBuilder("asm")
        en = b.input("en", 1)
        r = b.reg("r", 1)
        r.drive(r | en)
        b.output("bad", r)
        b.output("en_low", ~en)
        circ = b.build()
        prop = SafetyProperty("p", "bad", assumptions=("en_low",))
        res = pdr_prove(circ, prop, time_limit=30)
        assert res.status is PdrStatus.PROVED
        check = check_certificate(circ, prop, res.certificate)
        assert check.ok, check.reason

    def test_checker_rejects_tampered_certificate(self):
        circ = wrap_counter()
        prop = SafetyProperty("p", "bad")
        res = pdr_prove(circ, prop, time_limit=30)
        assert res.status is PdrStatus.PROVED and res.certificate.clauses
        # Drop a clause: the remaining conjunction is weaker and some
        # condition (safety or consecution) must break — or, if it
        # happens to still be inductive and safe, flipping a literal
        # value in one clause must break initialisation or consecution.
        tampered = Certificate(
            prop_name=res.certificate.prop_name,
            bad=res.certificate.bad,
            clauses=tuple(
                tuple((n, 1 - v) for n, v in clause)
                for clause in res.certificate.clauses
            ),
        )
        assert not check_certificate(circ, prop, tampered).ok

    def test_checker_rejects_unknown_names(self):
        circ = wrap_counter()
        prop = SafetyProperty("p", "bad")
        cert = Certificate("p", "bad", ((("no_such_bit", 1),),))
        check = check_certificate(circ, prop, cert)
        assert not check.ok
        assert "unknown register bit" in check.reason

    def test_certificate_roundtrips_through_dict(self):
        circ = wrap_counter()
        prop = SafetyProperty("p", "bad")
        res = pdr_prove(circ, prop, time_limit=30)
        back = Certificate.from_dict(res.certificate.as_dict())
        assert back == res.certificate
        assert check_certificate(circ, prop, back).ok


class TestCounterexamples:
    def test_finds_reachable_violation(self):
        circ = plain_counter(5)
        res = pdr_prove(circ, SafetyProperty("p", "bad"), time_limit=30)
        assert res.status is PdrStatus.COUNTEREXAMPLE
        wf = res.counterexample.replay(circ)
        assert any(v == 1 for v in wf.trace("bad"))

    @pytest.mark.parametrize("max_frames, status", [
        (100, PdrStatus.COUNTEREXAMPLE), (2, PdrStatus.UNKNOWN)])
    def test_flat_lowering_builds_no_circuit(self, max_frames, status):
        """PDR encodes its frame from the op program: short of a proof
        (whose certificate check builds it on purpose), a flat lowering
        with no init assumptions never builds its gate-level Circuit."""
        from repro.formal.bmc import _as_lowered

        prop = SafetyProperty("p", "bad")
        cached = _as_lowered(plain_counter(bad_at=5), prop)
        lowered = type(cached)(None, cached.bits, cached.pruned_resets,
                               netlist=cached.netlist)
        res = pdr_prove(lowered, prop, max_frames=max_frames, time_limit=30)
        assert res.status is status
        assert lowered._circuit is None

    def test_bad_at_initial_state(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 4, reset=7)
        r.drive(r)
        b.output("bad", r.eq(7))
        res = pdr_prove(b.build(), SafetyProperty("p", "bad"), time_limit=30)
        assert res.status is PdrStatus.COUNTEREXAMPLE
        assert res.counterexample.length == 1

    def test_symbolic_initial_state(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 4)
        r.drive(r)
        b.output("bad", r.eq(11))
        prop = SafetyProperty("p", "bad", symbolic_registers=frozenset({"r"}))
        res = pdr_prove(b.build(), prop, time_limit=30)
        assert res.status is PdrStatus.COUNTEREXAMPLE

    def test_agrees_with_bmc_on_random_circuits(self):
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from conftest import random_cell_circuit
        from repro.formal import BmcStatus, bounded_model_check

        for seed in range(6):
            circ = random_cell_circuit(seed, width=3, depth=6)
            # bad: some output bit pattern
            prop = SafetyProperty(
                "p",
                circ.outputs[0].name if circ.outputs[0].width == 1 else None,
            ) if circ.outputs[0].width == 1 else None
            # use a derived 1-bit bad instead
            from repro.hdl.cells import Cell, CellOp
            from repro.hdl.signals import Signal, SignalKind

            bad = Signal("is_bad", 1, SignalKind.OUTPUT)
            circ.add_cell(Cell(CellOp.EQ, bad,
                               (circ.outputs[0], circ.outputs[0]), ()))
            # trivially true bad -> counterexample at depth 0 for both
            prop = SafetyProperty("p", "is_bad")
            bmc = bounded_model_check(circ, prop, max_bound=3)
            pdr = pdr_prove(circ, prop, time_limit=30)
            assert (bmc.status is BmcStatus.COUNTEREXAMPLE) == \
                (pdr.status is PdrStatus.COUNTEREXAMPLE), seed


def equal_at_init(bad_at=None):
    """Two held symbolic registers assumed equal at the initial state.

    ``bad`` is a reset-0 register of ``r1 != r2``, which no execution
    allowed by the init assumption reaches; with ``bad_at`` it is
    ``r1 == r2 == bad_at`` instead, which one does."""
    b = ModuleBuilder("eqinit")
    r1 = b.reg("r1", 4)
    r1.drive(r1)
    r2 = b.reg("r2", 4)
    r2.drive(r2)
    b.output("eq", r1.eq(r2))
    if bad_at is None:
        ne = b.reg("ne", 1)
        ne.drive(r1.ne(r2))
        b.output("bad", ne)
    else:
        b.output("bad", r1.eq(bad_at) & r2.eq(bad_at))
    prop = SafetyProperty("p", "bad", init_assumptions=("eq",),
                          symbolic_registers=frozenset({"r1", "r2"}))
    return b.build(), prop


class TestInitAssumptions:
    """PDR over-approximates the initial states, so a counterexample
    whose first state breaks an init assumption must come back UNKNOWN,
    however the circuit was handed over."""

    def test_circuit_and_lowered_both_downgrade(self):
        from repro.formal.bmc import _as_lowered

        circ, prop = equal_at_init()
        for given_circuit in (circ, _as_lowered(circ, prop)):
            res = pdr_prove(given_circuit, prop, time_limit=30)
            assert res.status is PdrStatus.UNKNOWN
            assert res.counterexample is None

    def test_portfolio_engines_agree(self):
        from repro.formal import (PortfolioConfig, PortfolioStatus,
                                  verify_portfolio)

        circ, prop = equal_at_init()
        status = {
            engine: verify_portfolio(circ, prop, PortfolioConfig(
                engines=(engine,), max_bound=4, time_limit=60)).status
            for engine in ("bmc", "kind", "pdr")
        }
        assert status == {"bmc": PortfolioStatus.BOUND_REACHED,
                          "kind": PortfolioStatus.PROVED,
                          "pdr": PortfolioStatus.UNKNOWN}

    def test_genuine_counterexample_is_kept(self):
        circ, prop = equal_at_init(bad_at=3)
        res = pdr_prove(circ, prop, time_limit=30)
        assert res.status is PdrStatus.COUNTEREXAMPLE
        wf = res.counterexample.replay(circ)
        assert wf.value("eq", 0) == 1
        assert any(v == 1 for v in wf.trace("bad"))


class TestGeneralizationInvariants:
    """Core-seeded generalization must stay sound: no blocking clause
    may exclude an initial state (that is the init-intersection repair's
    whole job)."""

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_blocking_clauses_never_exclude_initial_states(self, seed):
        from repro.bench.fuzz import random_machine
        from repro.formal.bmc import _as_lowered
        from repro.formal.pdr import _Pdr

        circuit = random_machine(seed)
        prop = SafetyProperty("p", "bad")
        engine = _Pdr(_as_lowered(circuit, prop), prop)
        orig = engine._add_clause

        def checked(level, clause):
            if level >= 1:
                # The clause holds on every init state iff one of its
                # literals is pinned true by the initial predicate.
                assert any(lit in engine._init_lits for lit in clause), (
                    seed, level, clause)
            return orig(level, clause)

        engine._add_clause = checked
        engine.run(max_frames=20, time_limit=20)
    def test_time_limit_returns_unknown(self):
        res = pdr_prove(wrap_counter(limit=14, width=5, bad_at=31),
                        SafetyProperty("p", "bad"), time_limit=0.0)
        assert res.status is PdrStatus.UNKNOWN

    def test_max_frames_bounds_work(self):
        res = pdr_prove(plain_counter(bad_at=15), SafetyProperty("p", "bad"),
                        max_frames=2, time_limit=30)
        assert res.status in (PdrStatus.UNKNOWN, PdrStatus.COUNTEREXAMPLE)
