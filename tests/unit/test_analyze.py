"""The SAT-free dataflow analysis package (repro.analyze) and its
consumers: the `static` portfolio engine, the CEGAR pre-screen, the
dataflow lint rules and the committed waiver file."""

import pytest

from repro.hdl import ModuleBuilder
from repro.analyze import (
    TOP,
    FixpointSolver,
    constant_fixpoint,
    solve_reachability,
    static_verify,
    suspect_ranking,
    taint_reachability,
    ternary_frames,
    x_reachability,
    x_sources,
)
from repro.formal import SafetyProperty
from repro.hdl.lowering import lower_to_gates
from repro.taint.instrument import TaintSources

PROP = SafetyProperty("p", "bad")


def _unsafe_counter(bad_at=5, width=4):
    b = ModuleBuilder("unsafe")
    c = b.reg("cnt", width)
    c.drive(c + 1)
    b.output("bad", c.eq(bad_at))
    return b.build()


def _safe_machine(width=4):
    b = ModuleBuilder("safe")
    c = b.reg("cnt", width)
    c.drive(c)  # stays at reset: bad is unreachable
    b.output("bad", c.eq(5))
    return b.build()


def _input_gated(width=4):
    """Whether bad fires depends on the free input: ternary-unknown."""
    b = ModuleBuilder("gated")
    x = b.input("x", width)
    c = b.reg("cnt", width)
    c.drive(c ^ x)
    b.output("bad", c.eq(5))
    return b.build()


def _leak_chain():
    """Secret register mixes into the sink through a submodule."""
    b = ModuleBuilder("m")
    sec = b.reg("secret", 4)
    sec.drive(sec)
    pub = b.input("pub", 4)
    with b.scope("sub"):
        mix = b.named("mix", sec ^ pub)
    b.output("sink", mix)
    b.output("clean", pub & pub)
    return b.build()


class TestLattice:
    def test_reachability_closure(self):
        deps = {"c": ["b"], "b": ["a"], "d": ["x"]}
        reached = solve_reachability(deps, ["a"])
        assert {"a", "b", "c"} <= reached and "d" not in reached

    def test_seed_propagates_through_joins(self):
        deps = {"out": ["l", "r"], "l": [], "r": []}
        solver = FixpointSolver(
            deps,
            transfer=lambda n, value_of: (
                max((value_of(d) for d in deps.get(n, ())), default=0)
            ),
            join=max,
            default=0,
        )
        solver.seed("l", 3)
        solver.solve()
        assert solver.value("out") == 3


class TestConstProp:
    def test_reset_pinned_vs_input_top(self):
        circuit = _safe_machine()
        lowered = lower_to_gates(circuit)
        facts = constant_fixpoint(lowered)
        assert facts.word_value(lowered, "bad") == 0
        gated = lower_to_gates(_input_gated())
        gfacts = constant_fixpoint(gated)
        assert gfacts.word_value(gated, "bad") is None

    def test_symbolic_register_is_not_pinned(self):
        circuit = _safe_machine()
        lowered = lower_to_gates(circuit)
        name = next(r.q.name for r in circuit.registers)
        facts = constant_fixpoint(lowered, frozenset({name}))
        assert facts.word_value(lowered, "bad") is None

    def test_ternary_frames_track_the_counter(self):
        lowered = lower_to_gates(_unsafe_counter(bad_at=2, width=3))
        trace = ternary_frames(lowered, 8)
        # frame values are per-slot; find the bad bit via the program
        facts = constant_fixpoint(lowered)
        bit = lowered.bits["bad"][0].name
        slot = facts.program.slot_of_name[bit]
        values = [frame[slot] for frame in trace.frames[:4]]
        assert values == [0, 0, 1, 0]


class TestTaintReachability:
    def test_secret_reaches_sink_not_clean_output(self):
        circuit = _leak_chain()
        secret = next(r.q.name for r in circuit.registers)
        reach = taint_reachability(
            circuit, None, TaintSources(registers={secret: 0xF})
        )
        assert reach.reachable(["sink"]) == ("sink",)
        assert reach.clean("clean")
        assert not any(n.startswith("region::") for n in reach.tainted)

    def test_blackbox_region_still_propagates(self):
        from repro.taint.space import blackbox_scheme

        circuit = _leak_chain()
        secret = next(r.q.name for r in circuit.registers)
        scheme = blackbox_scheme(["sub"])
        reach = taint_reachability(
            circuit, scheme, TaintSources(registers={secret: 0xF})
        )
        assert reach.reachable(["sink"]) == ("sink",)

    def test_suspect_ranking_is_sink_first(self):
        circuit = _leak_chain()
        secret = next(r.q.name for r in circuit.registers)
        reach = taint_reachability(
            circuit, None, TaintSources(registers={secret: 0xF})
        )
        ranked = suspect_ranking(circuit, None, reach, ["sink"])
        assert ranked and ranked[0] == "sink"


class TestXProp:
    def test_stuck_register_reaches_output(self):
        circuit = _leak_chain()
        sources = x_sources(circuit)
        assert sources  # the self-driven secret register
        reach = x_reachability(circuit, sources)
        assert "sink" in reach.observable(["sink", "clean"])
        assert "clean" not in reach.reaches

    def test_constant_signals_block_the_closure(self):
        circuit = _leak_chain()
        sources = x_sources(circuit)
        reach = x_reachability(circuit, sources, constant_signals=["sink"])
        assert "sink" not in reach.reaches


class TestStaticEngine:
    def test_safe_machine_is_verified(self):
        verdict = static_verify(_safe_machine(), PROP)
        assert verdict.status == "verified"
        assert verdict.proved and verdict.definitive

    def test_unsafe_counter_is_definite_violation(self):
        verdict = static_verify(_unsafe_counter(bad_at=5), PROP)
        assert verdict.status == "violation"
        cex = verdict.counterexample
        assert cex is not None and cex.length == 6
        wf = cex.replay(_unsafe_counter(bad_at=5))
        assert wf.value("bad", cex.length - 1) == 1

    def test_input_gated_is_unknown_with_suspects(self):
        verdict = static_verify(_input_gated(), PROP)
        assert verdict.status == "unknown"
        assert verdict.bound >= 0
        assert verdict.suspects

    @staticmethod
    def _sodor_initial():
        from repro.cegar import loop
        from repro.contracts import make_contract_task
        from repro.cores import CoreConfig, build_sodor

        task = make_contract_task(build_sodor(CoreConfig(
            xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)))
        design, prop = loop.instrument_task(task, task.initial_scheme())
        return design.circuit, prop

    @pytest.mark.parametrize("build, expected", [
        (lambda: (_safe_machine(), PROP), "verified"),
        (lambda: (_unsafe_counter(bad_at=5), PROP), "violation"),
        (lambda: (_input_gated(), PROP), "unknown"),
        ("_sodor_initial", None),
    ], ids=["verified", "violation", "unknown", "sodor-initial"])
    def test_no_gate_circuit_before_the_replay(self, monkeypatch, build, expected):
        """The analysis reads the flat lowering; only ``_confirm``'s
        replay builds its ``Circuit``."""
        from repro.analyze import engine
        from repro.formal import bmc
        from repro.hdl.netlist import Netlist

        circuit, prop = getattr(self, build)() if isinstance(build, str) else build()
        monkeypatch.setattr(bmc, "_LOWERED_CACHE", type(bmc._LOWERED_CACHE)())
        built, at_confirm = [], []
        original_to_circuit, original_confirm = Netlist.to_circuit, engine._confirm

        def to_circuit(netlist, *args, **kwargs):
            built.append(netlist.name)
            return original_to_circuit(netlist, *args, **kwargs)

        def confirm(*args):
            at_confirm.append(len(built))
            return original_confirm(*args)
        monkeypatch.setattr(Netlist, "to_circuit", to_circuit)
        monkeypatch.setattr(engine, "_confirm", confirm)

        verdict = static_verify(circuit, prop)
        if expected is not None:
            assert verdict.status == expected
        assert at_confirm == ([0] if verdict.status == "violation" else [])
        if verdict.status != "violation":
            assert built == []

    def test_sodor_suspects_are_source_signals(self):
        """Suspects name word-level signals, never pipeline gate names."""
        circuit, prop = self._sodor_initial()
        verdict = static_verify(circuit, prop)
        assert verdict.status == "unknown"
        assert verdict.suspects
        assert set(verdict.suspects) <= set(circuit.signals)

    def test_unknown_property_signal_raises(self):
        # Same failure mode as the SAT engines: lowering has no such bit.
        with pytest.raises((KeyError, ValueError)):
            static_verify(_safe_machine(), SafetyProperty("p", "nope"))


class TestStaticPortfolioEngine:
    def test_static_proves_in_portfolio(self):
        from repro.formal import (
            ALL_ENGINE_NAMES,
            PortfolioConfig,
            PortfolioStatus,
            verify_portfolio,
        )

        assert "static" in ALL_ENGINE_NAMES
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(engines=("static",), max_bound=10,
                            time_limit=60),
        )
        assert res.status is PortfolioStatus.PROVED
        assert res.winner == "static"

    def test_static_counterexample_in_portfolio(self):
        from repro.formal import (
            PortfolioConfig,
            PortfolioStatus,
            verify_portfolio,
        )

        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("static",), max_bound=10,
                            time_limit=60),
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        wf = res.counterexample.replay(_unsafe_counter())
        assert wf.value("bad", res.counterexample.length - 1) == 1

    def test_static_yields_to_sat_engines_when_unknown(self):
        from repro.formal import (
            PortfolioConfig,
            PortfolioStatus,
            verify_portfolio,
        )

        res = verify_portfolio(
            _input_gated(), PROP,
            PortfolioConfig(engines=("static", "bmc"), max_bound=10,
                            time_limit=60),
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        assert res.winner == "bmc"

    def test_static_not_in_default_engines(self):
        from repro.formal import ENGINE_NAMES

        assert "static" not in ENGINE_NAMES


class TestBacktraceHints:
    def test_hints_bias_the_candidate_pick(self):
        """find_refinement_location prefers hinted candidates."""
        import inspect

        from repro.cegar.backtrace import find_refinement_location

        signature = inspect.signature(find_refinement_location)
        assert "hints" in signature.parameters


class TestDataflowLintRules:
    def test_unreachable_observable(self):
        b = ModuleBuilder("t")
        x = b.input("x", 1)
        b.output("live", x)
        b.output("stone", b.const(1, 1) & b.const(1, 1))
        from repro.lint import lint

        report = lint(b.build())
        findings = report.by_rule("unreachable-observable")
        assert [d.path for d in findings] == ["stone"]

    def test_statically_dead_taint_logic(self):
        from repro.lint import lint
        from repro.taint.space import (
            Complexity,
            Granularity,
            TaintOption,
            TaintScheme,
        )

        b = ModuleBuilder("t")
        x = b.input("x", 1)
        dead = b.named("deadw", x & x)  # feeds nothing
        b.output("o", x)
        circuit = b.build()
        dead_name = next(
            c.out.name for c in circuit.cells if c.out.name.endswith("deadw")
        )
        scheme = TaintScheme("s")
        scheme.cell_options[dead_name] = TaintOption(
            Granularity.WORD, Complexity.FULL)
        report = lint(circuit, scheme, categories=["dataflow"])
        assert report.by_rule("statically-dead-taint-logic")

    def test_const_gated_monitor(self):
        from repro.lint import lint

        b = ModuleBuilder("t")
        x = b.input("x", 4)
        c = b.reg("cnt", 4)
        c.drive(c & c)  # stays 0 in every reachable state (not stuck)
        b.output("alarm", c.eq(5))  # can never fire
        b.output("o", x)
        report = lint(b.build())
        findings = report.by_rule("const-gated-monitor")
        assert [d.path for d in findings] == ["alarm"]

    def test_x_reaches_observable(self):
        from repro.lint import lint

        report = lint(_leak_chain())
        findings = report.by_rule("x-reaches-observable")
        assert [d.path for d in findings] == ["sink"]


class TestWaivers:
    def test_load_waivers_round_trip(self, tmp_path):
        from repro.lint import load_waivers

        path = tmp_path / "lint-waivers.toml"
        path.write_text(
            '[[waivers]]\nrule = "dead-logic"\npath = "core.*"\n'
            'reason = "debug signals"\n'
        )
        assert load_waivers(path) == (("dead-logic", "core.*"),)

    def test_missing_reason_rejected(self, tmp_path):
        from repro.lint import WaiverError, load_waivers

        path = tmp_path / "lint-waivers.toml"
        path.write_text('[[waivers]]\nrule = "dead-logic"\npath = "*"\n')
        with pytest.raises(WaiverError, match="reason"):
            load_waivers(path)

    def test_unknown_key_rejected(self, tmp_path):
        from repro.lint import WaiverError, load_waivers

        path = tmp_path / "lint-waivers.toml"
        path.write_text(
            '[[waivers]]\nrule = "a"\npath = "*"\nreason = "r"\nrul = "x"\n'
        )
        with pytest.raises(WaiverError, match="unknown key"):
            load_waivers(path)

    def test_committed_file_loads_and_waives(self):
        import pathlib

        from repro.lint import LintConfig, lint, load_waivers

        repo = pathlib.Path(__file__).resolve().parents[2]
        waivers = load_waivers(repo / "lint-waivers.toml")
        assert ("stuck-register", "*") in waivers
        report = lint(_leak_chain(), config=LintConfig(waivers=waivers))
        stuck = report.by_rule("stuck-register")
        assert stuck and all(d.waived for d in stuck)

    def test_find_waivers_file(self, tmp_path, monkeypatch):
        from repro.lint import find_waivers_file

        (tmp_path / "lint-waivers.toml").write_text("")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        found = find_waivers_file()
        assert found == tmp_path / "lint-waivers.toml"


class TestStableLintJson:
    def test_every_entry_has_the_full_key_set(self):
        from repro.lint import LintConfig, lint

        report = lint(
            _leak_chain(),
            config=LintConfig(waivers=(("stuck-register", "*"),)),
        )
        doc = report.to_stable_dict()
        assert doc["schema"] == "repro-lint/v1"
        keys = {"rule", "severity", "path", "source", "module",
                "message", "fix_hint", "waived"}
        assert doc["diagnostics"]
        for entry in doc["diagnostics"]:
            assert set(entry) == keys
        assert any(entry["waived"] for entry in doc["diagnostics"])


def _frame_solves(tracer):
    """Number of SAT frame solves (bmc.frame spans) in a trace."""
    from repro.obs import summary_from_events

    summary = summary_from_events(tracer.snapshot_events())
    return sum(count for name, count, _total, _self in summary.by_name()
               if name == "bmc.frame")


class TestCegarPrescreen:
    def _task(self, circuit, sinks):
        from repro.cegar.loop import TaintVerificationTask

        secret = next(r.q.name for r in circuit.registers)
        return TaintVerificationTask(
            name="t",
            circuit=circuit,
            sources=TaintSources(registers={secret: 0xF}),
            sinks=tuple(sinks),
        )

    def test_static_engine_proves_clean_design(self):
        """Taint cannot reach the clean output: the pre-screen alone
        proves it, with zero SAT solves."""
        from repro.cegar.loop import CegarConfig, CegarStatus, run_compass
        from repro.obs import Tracer

        b = ModuleBuilder("m")
        sec = b.reg("secret", 4)
        sec.drive(sec)
        pub = b.input("pub", 4)
        b.output("sink", pub & pub)
        b.output("dummy", sec)  # keep the secret live
        task = self._task(b.build(), ["sink"])
        tracer = Tracer()
        config = CegarConfig(engine="static", sim_prefilter=False,
                             max_bound=6, trace=tracer)
        result = run_compass(task, config)
        assert result.status is CegarStatus.PROVED
        assert result.stats.counters["analyze.prescreens"] == 1
        assert result.stats.counters["analyze.prescreen_proofs"] == 1
        assert _frame_solves(tracer) == 0

    def _toy_task(self):
        b = ModuleBuilder("m")
        sec = b.reg("secret", 2)
        sec.drive(sec)
        pub = b.input("pub", 2)
        b.output("sink", sec ^ pub)
        return self._task(b.build(), ["sink"])

    @staticmethod
    def _tiny_sodor_task():
        from repro.contracts import make_contract_task
        from repro.cores import CoreConfig, core_registry

        cfg = CoreConfig.formal(xlen=4, imem_depth=4, dmem_depth=4,
                                secret_words=1)
        return make_contract_task(core_registry()["Sodor"](cfg, True))

    @pytest.mark.parametrize("make_task, max_bound, max_refinements", [
        pytest.param("_toy_task", 4, 4, id="toy"),
        pytest.param("_tiny_sodor_task", 2, 2, id="sodor"),
    ])
    def test_prescreen_skips_proven_bounds(self, make_task, max_bound,
                                           max_refinements):
        """The pre-screen donates its ternary bound to BMC as
        start_bound: identical verdict, strictly fewer SAT frame
        solves.  Sequential engine, no induction and no simulation
        pre-filter, so every iteration goes straight to BMC and the
        frame count isolates what the pre-screen saves."""
        from repro.cegar.loop import CegarConfig, run_compass
        from repro.obs import Tracer

        build = getattr(self, make_task)

        def run(prescreen):
            tracer = Tracer()
            config = CegarConfig(engine="sequential", use_induction=False,
                                 sim_prefilter=False, max_bound=max_bound,
                                 max_refinements=max_refinements, seed=0,
                                 static_prescreen=prescreen, trace=tracer)
            result = run_compass(build(), config)
            return result, _frame_solves(tracer)

        base, base_frames = run(False)
        pre, pre_frames = run(True)
        assert pre.status is base.status
        assert pre.bound == base.bound
        assert pre.stats.counters["analyze.prescreens"] >= 1
        if pre.stats.counters.get("analyze.skipped_bounds"):
            assert pre_frames < base_frames

    def test_prune_static_accept(self):
        """Pruning accepts undos without replay when the sinks are
        statically unreachable under the trial scheme."""
        from repro.cegar.prune import PruneReport

        report = PruneReport(attempted=3, removed=3, static_accepted=2)
        assert "accepted without replay" in report.row()
