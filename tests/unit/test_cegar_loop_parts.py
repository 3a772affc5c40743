"""Unit tests for CEGAR loop components: the simulation prefilter,
instrument_task, the per-candidate verification unit, scheme digests,
seedless determinism, and result/statistics plumbing."""

import random

import pytest

from repro.hdl import ModuleBuilder
from repro.taint import TaintSources
from repro.cegar import (
    CegarConfig,
    CegarStatus,
    TaintVerificationTask,
    run_compass,
    scheme_digest,
    verify_candidate,
)
from repro.cegar.loop import instrument_task, simulate_for_counterexample


def _leaky_task():
    b = ModuleBuilder("leaky")
    sel = b.input("sel", 1)
    sec = b.reg("secret", 4)
    sec.drive(sec)
    pub = b.reg("pub", 4)
    pub.drive(pub)
    b.output("sink", b.mux(sel, sec, pub))
    return TaintVerificationTask(
        name="leaky", circuit=b.build(),
        sources=TaintSources(registers={"secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"secret", "pub"}),
    )


def _safe_task():
    b = ModuleBuilder("safe")
    sel = b.input("sel", 1)
    sec = b.reg("secret", 4)
    sec.drive(sec)
    pub = b.reg("pub", 4)
    pub.drive(pub)
    b.output("sink", b.mux(sel, pub, pub))
    return TaintVerificationTask(
        name="safe", circuit=b.build(),
        sources=TaintSources(registers={"secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"secret", "pub"}),
    )


class TestSimulationPrefilter:
    def test_finds_violation_on_leaky_design(self):
        task = _leaky_task()
        design, prop = instrument_task(task, task.initial_scheme())
        cex = simulate_for_counterexample(task, design, prop, trials=64,
                                          depth=6, rng=random.Random(0))
        assert cex is not None
        # The counterexample must replay to a tainted sink.
        wf = cex.replay(design.circuit)
        assert wf.value(design.taint_name["sink"], wf.length - 1) != 0

    def test_prefers_shallow_counterexamples(self):
        task = _leaky_task()
        design, prop = instrument_task(task, task.initial_scheme())
        cex = simulate_for_counterexample(task, design, prop, trials=64,
                                          depth=12, rng=random.Random(0))
        assert cex.length <= 3

    def test_no_violation_on_clean_design(self):
        task = _safe_task()
        from repro.taint import cellift_scheme

        design, prop = instrument_task(task, cellift_scheme())
        cex = simulate_for_counterexample(task, design, prop, trials=32,
                                          depth=6, rng=random.Random(0))
        assert cex is None

    def test_sampler_is_used(self):
        calls = []

        def sampler(rng, depth):
            calls.append(depth)
            return {"secret": 5, "pub": 1}, [{"sel": 1}] * depth

        task = _leaky_task()
        task = TaintVerificationTask(
            name=task.name, circuit=task.circuit, sources=task.sources,
            sinks=task.sinks, symbolic_registers=task.symbolic_registers,
            stimulus_sampler=sampler,
        )
        design, prop = instrument_task(task, task.initial_scheme())
        cex = simulate_for_counterexample(task, design, prop, trials=4,
                                          depth=5, rng=random.Random(0))
        assert calls and calls[0] == 5
        assert cex is not None
        assert cex.inputs[0]["sel"] == 1


class TestInstrumentTask:
    def test_monitors_created(self):
        task = _leaky_task()
        design, prop = instrument_task(task, task.initial_scheme())
        assert prop.bad == "__compass_bad"
        assert prop.bad in design.circuit.signals
        assert prop.symbolic_registers == task.symbolic_registers

    def test_assumption_monitors(self):
        b = ModuleBuilder("t")
        cond = b.input("cond", 1)
        sec = b.reg("secret", 4)
        sec.drive(sec)
        b.output("sink", sec)
        b.output("obs", sec)
        task = TaintVerificationTask(
            name="t", circuit=b.build(),
            sources=TaintSources(registers={"secret": -1}),
            sinks=("sink",),
            clean_assumptions=("obs",),
            gated_clean_assumptions=(("cond", "obs"),),
        )
        design, prop = instrument_task(task, task.initial_scheme())
        assert "__compass_clean" in prop.assumptions
        assert "__compass_gated_clean" in prop.assumptions


class TestLoopOutcomes:
    def test_mc_disabled_mode_stops_at_bound(self):
        task = _safe_task()
        result = run_compass(task, CegarConfig(mc_enabled=False, sim_trials=16,
                                               sim_depth=6, seed=0,
                                               exact_validation=False))
        assert result.status is CegarStatus.BOUND_REACHED

    def test_budget_exhaustion_reported(self):
        task = _leaky_task()
        # 0 refinements allowed: the first spurious/real cex cannot be
        # processed -> REAL_LEAK (this design truly leaks) is still fine,
        # so use a max_counterexamples=0 config on the safe task instead.
        safe = _safe_task()
        result = run_compass(safe, CegarConfig(max_counterexamples=0,
                                               max_bound=4, use_induction=False,
                                               seed=0))
        assert result.status in (CegarStatus.BUDGET_EXHAUSTED,
                                 CegarStatus.BOUND_REACHED)

    def test_eliminated_counterexamples_recorded(self):
        result = run_compass(_safe_task(),
                             CegarConfig(max_bound=5, induction_max_k=5, seed=0))
        assert result.secure
        assert len(result.stats.eliminated) == result.stats.counterexamples_eliminated

    def test_real_leak_short_circuits(self):
        result = run_compass(_leaky_task(),
                             CegarConfig(max_bound=5, induction_max_k=5, seed=0))
        assert result.status is CegarStatus.REAL_LEAK
        assert result.leak is not None


class TestSchemeDigest:
    def test_name_insensitive(self):
        task = _safe_task()
        a = task.initial_scheme().copy(name="a")
        b = task.initial_scheme().copy(name="b")
        assert scheme_digest(a) == scheme_digest(b)

    def test_content_sensitive(self):
        task = _safe_task()
        base = task.initial_scheme()
        refined = base.copy()
        from repro.taint.space import Complexity, Granularity, TaintOption

        refined.refine_cell("x", TaintOption(Granularity.WORD, Complexity.FULL))
        assert scheme_digest(base) != scheme_digest(refined)

    def test_stable_across_copies(self):
        scheme = _safe_task().initial_scheme()
        assert scheme_digest(scheme) == scheme_digest(scheme.copy())


class TestVerifyCandidate:
    def test_proved_on_clean_scheme(self):
        task = _safe_task()
        from repro.taint import cellift_scheme

        verdict = verify_candidate(task, cellift_scheme(),
                                   CegarConfig(max_bound=5, induction_max_k=5))
        assert verdict.status == "proved"

    def test_counterexample_on_blackbox_scheme(self):
        task = _safe_task()
        verdict = verify_candidate(task, task.initial_scheme(),
                                   CegarConfig(max_bound=5, induction_max_k=5))
        # The blackbox scheme overtaints: either a counterexample or a
        # proof, but on this design the sticky module taint reaches the
        # sink, and the verdict must carry the replayable trace.
        if verdict.status == "counterexample":
            assert verdict.counterexample is not None

    def test_deterministic_with_and_without_design(self):
        task = _safe_task()
        scheme = task.initial_scheme()
        config = CegarConfig(max_bound=5, induction_max_k=5)
        design, prop = instrument_task(task, scheme)
        a = verify_candidate(task, scheme, config)
        b = verify_candidate(task, scheme, config, design=design, prop=prop)
        assert (a.status, a.bound, a.engine_status) == \
            (b.status, b.bound, b.engine_status)

    def test_mc_disabled_stops_at_bound(self):
        task = _safe_task()
        verdict = verify_candidate(task, task.initial_scheme(),
                                   CegarConfig(mc_enabled=False))
        assert verdict.status == "bound_reached"
        assert verdict.engine_status == ""


class TestSeedlessDeterminism:
    def test_seed_none_is_reproducible(self):
        """seed=None derives a digest-based RNG: two runs are identical."""
        config = CegarConfig(max_bound=5, induction_max_k=5, seed=None)
        r1 = run_compass(_safe_task(), config)
        r2 = run_compass(_safe_task(), config)
        assert r1.status is r2.status
        assert r1.stats.refinement_log == r2.stats.refinement_log

    def test_seed_none_differs_from_seeded_by_config(self):
        # Not asserting inequality of trajectories (they may coincide),
        # just that seed=None no longer crashes or draws from the clock.
        result = run_compass(_leaky_task(),
                             CegarConfig(max_bound=5, induction_max_k=5,
                                         seed=None))
        assert result.status is CegarStatus.REAL_LEAK
