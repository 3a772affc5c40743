"""Unit tests for CEGAR loop components: the simulation prefilter,
instrument_task, the per-candidate verification unit, scheme digests,
seedless determinism, and result/statistics plumbing."""

import os
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench.fuzz import random_machine
from repro.formal.counterexample import Counterexample
from repro.hdl import ModuleBuilder
from repro.obs import Tracer
from repro.sim.simulator import Simulator
from repro.taint import TaintSources, cellift_scheme, glift_scheme
from repro.cegar import (
    CegarConfig,
    CegarStatus,
    TaintVerificationTask,
    run_compass,
    scheme_digest,
    verify_candidate,
)
from repro.cegar import loop
from repro.cegar.loop import instrument_task, simulate_for_counterexample

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import build_mux_chain  # noqa: E402


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


def _sequential_prefilter(task, design, prop, trials, depth, rng):
    """Reference: one trial at a time on the scalar interpreter.

    The lane-parallel prefilter must return the same counterexample and
    leave ``rng`` in the same state as this loop.
    """
    circuit = design.circuit
    input_names = [sig.name for sig in circuit.inputs]
    reg_widths = {reg.q.name: reg.q.width for reg in circuit.registers}
    symbolic = [name for name in sorted(task.symbolic_registers) if name in reg_widths]

    best = None
    for _ in range(trials):
        if best is not None and best.length <= 3:
            break
        if task.stimulus_sampler is not None:
            init, frames = task.stimulus_sampler(rng, depth)
            frames = [
                {name: frame.get(name, rng.getrandbits(circuit.signal(name).width))
                 for name in input_names}
                for frame in frames
            ]
        else:
            init = {name: rng.getrandbits(reg_widths[name]) for name in symbolic}
            frames = [
                {name: rng.getrandbits(circuit.signal(name).width)
                 for name in input_names}
                for _ in range(depth)
            ]
        sim = Simulator(circuit, initial_state=init)
        horizon = len(frames) if best is None else min(len(frames), best.length - 1)
        for t, frame in enumerate(frames[:horizon]):
            sim.step(frame)
            if t == 0 and any(sim.peek(n) == 0 for n in prop.init_assumptions):
                break
            if any(sim.peek(name) == 0 for name in prop.assumptions):
                break
            if sim.peek(prop.bad):
                best = Counterexample(
                    length=t + 1,
                    inputs=[dict(f) for f in frames[:t + 1]],
                    initial_state=dict(init),
                    bad_signal=prop.bad,
                )
                break
    return best


def _cex_fields(cex):
    if cex is None:
        return None
    return (cex.length, cex.inputs, cex.initial_state, cex.bad_signal)


def _assert_matches_sequential(task, scheme, trials, depth, seed):
    design, prop = instrument_task(task, scheme)
    ref_rng, rng = random.Random(seed), random.Random(seed)
    expected = _sequential_prefilter(task, design, prop, trials, depth, ref_rng)
    got = simulate_for_counterexample(task, design, prop, trials, depth, rng)
    assert _cex_fields(got) == _cex_fields(expected)
    assert rng.getstate() == ref_rng.getstate()
    return got


def _machine_task(seed, width=3, assume=None):
    """A fuzzed machine whose ``bad`` output is the sink's only path."""
    circuit = random_machine(seed, width=width)
    regs = sorted(reg.q.name for reg in circuit.registers)
    sources = (TaintSources(registers={regs[0]: -1}) if seed % 2
               else TaintSources(inputs={"x": -1}))
    task = TaintVerificationTask(
        name=f"fuzz{seed}", circuit=circuit, sources=sources,
        sinks=("bad",), symbolic_registers=frozenset(regs),
    )
    if assume == "cycle":
        task = replace(task, assumption_outputs=("bad",))
    elif assume == "init":
        task = replace(task, init_assumption_outputs=("bad",))
    return task


def _pipeline_task():
    """secret -> r1 -> r2 -> sink: the sink's taint is a register's."""
    b = ModuleBuilder("pipe")
    go = b.input("go", 1)
    sec = b.reg("secret", 4)
    sec.drive(sec)
    r1 = b.reg("r1", 4)
    r1.drive(b.mux(go, sec, r1))
    r2 = b.reg("r2", 4)
    r2.drive(r1)
    b.output("sink", r2)
    return TaintVerificationTask(
        name="pipe", circuit=b.build(),
        sources=TaintSources(registers={"secret": -1}),
        sinks=("sink",), symbolic_registers=frozenset({"secret"}),
    )


def _ragged_sampler(rng, depth):
    """Short, empty and over-long frame lists; frames set some inputs."""
    length = rng.randrange(depth + 3)
    frames = []
    for _ in range(length):
        frame = {}
        if rng.random() < 0.5:
            frame["sel"] = rng.getrandbits(1)
        frames.append(frame)
    init = {"secret": rng.getrandbits(4)} if rng.random() < 0.5 else {}
    return init, frames


def _scripted_sampler(fire_at):
    """Trial ``i`` first selects the secret in cycle ``fire_at[i]``
    (None: never); every trial also draws from the RNG."""
    calls = iter(fire_at)

    def sampler(rng, depth):
        cycle = next(calls)
        frames = [{"sel": int(t == cycle)} for t in range(depth)]
        return {"secret": rng.getrandbits(4) | 1, "pub": 0}, frames

    return sampler


class TestPrefilterMatchesSequential:
    """The lane-parallel prefilter against the one-at-a-time reference."""

    @pytest.mark.parametrize("trials", [0, 1, 5, 32])
    @pytest.mark.parametrize("make_task", [_leaky_task, _safe_task, _pipeline_task])
    def test_fixtures(self, make_task, trials):
        task = make_task()
        for scheme in (task.initial_scheme(), cellift_scheme()):
            for seed in range(3):
                _assert_matches_sequential(task, scheme, trials, 6, seed)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("assume", [None, "cycle", "init"])
    def test_fuzzed_machines(self, seed, assume):
        task = _machine_task(seed, width=2 if assume else 3, assume=assume)
        for scheme in (task.initial_scheme(), cellift_scheme(), glift_scheme()):
            _assert_matches_sequential(task, scheme, 24, 8, seed)

    def test_assumption_stops(self):
        """Trial 0 fires in a cycle that breaks the per-cycle assumption,
        trial 1 fires but breaks the init assumption, trial 2 is clean."""
        b = ModuleBuilder("assume")
        sel = b.input("sel", 1)
        en = b.input("en", 1)
        sec = b.reg("secret", 4)
        sec.drive(sec)
        pub = b.reg("pub", 4)
        pub.drive(pub)
        b.output("sink", b.mux(sel, sec, pub))
        b.output("init_ok", pub.redor())
        b.output("en_ok", en)
        task = TaintVerificationTask(
            name="assume", circuit=b.build(),
            sources=TaintSources(registers={"secret": -1}), sinks=("sink",),
            assumption_outputs=("en_ok",), init_assumption_outputs=("init_ok",),
        )

        def scripted():
            scripts = iter([
                ({"pub": 1}, [{"sel": 1, "en": 0}, {"sel": 1, "en": 1}]),
                ({"pub": 0}, [{"sel": 1, "en": 1}]),
                ({"pub": 1}, [{"sel": 0, "en": 1}, {"sel": 1, "en": 1}]),
            ])

            def sampler(rng, depth):
                init, frames = next(scripts)
                return dict(init, secret=rng.getrandbits(4)), frames
            return replace(task, stimulus_sampler=sampler)

        design, prop = instrument_task(task, cellift_scheme())
        ref_rng, rng = random.Random(2), random.Random(2)
        expected = _sequential_prefilter(scripted(), design, prop, 3, 2, ref_rng)
        cex = simulate_for_counterexample(scripted(), design, prop, 3, 2, rng)
        assert _cex_fields(cex) == _cex_fields(expected)
        assert rng.getstate() == ref_rng.getstate()
        assert cex.length == 2 and cex.initial_state["pub"] == 1
        assert cex.inputs[0] == {"sel": 0, "en": 1}

    def test_ragged_sampler_frames(self):
        for seed in range(6):
            task = replace(_leaky_task(), stimulus_sampler=_ragged_sampler)
            for scheme in (task.initial_scheme(), cellift_scheme()):
                _assert_matches_sequential(task, scheme, 16, 4, seed)

    def test_pipeline_fires_when_register_taint_reaches_sink(self):
        task = _pipeline_task()
        task = replace(task, stimulus_sampler=lambda rng, depth: (
            {"secret": rng.getrandbits(4)}, [{"go": 1}] * depth))
        cex = _assert_matches_sequential(task, cellift_scheme(), 4, 6, 0)
        assert cex.length == 3

    @pytest.mark.parametrize("fire_at, expected_length", [
        ([2, 0, 0], 3),             # trial 0 is shallow: trial 1 never drawn
        ([4, 2, 0], 3),             # trial 1 is shallow: trial 2 never drawn
        ([6, 5, 1, None], 2),       # strictly shorter replaces, in order
        ([3, 3, 3], 4),             # ties keep the earliest trial
        ([None, None, None], None),
    ])
    def test_early_stop_and_ties(self, fire_at, expected_length):
        task = replace(_leaky_task(), stimulus_sampler=_scripted_sampler(fire_at))
        ref_task = replace(_leaky_task(), stimulus_sampler=_scripted_sampler(fire_at))
        design, prop = instrument_task(task, cellift_scheme())
        ref_rng, rng = random.Random(1), random.Random(1)
        expected = _sequential_prefilter(ref_task, design, prop, len(fire_at), 8,
                                         ref_rng)
        got = simulate_for_counterexample(task, design, prop, len(fire_at), 8, rng)
        assert _cex_fields(got) == _cex_fields(expected)
        assert rng.getstate() == ref_rng.getstate()
        assert (got.length if got else None) == expected_length


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

    def test_fast_validation_replays_each_counterexample_once(self, monkeypatch):
        """The fast false-taint oracle that judged a counterexample
        spurious also serves its refinement: one two-lane replay per
        counterexample, with both spans still recorded."""
        built = []

        class CountingOracle(loop.FastFalseTaintOracle):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)
        monkeypatch.setattr(loop, "FastFalseTaintOracle", CountingOracle)
        task = TaintVerificationTask(
            name="fig2", circuit=build_mux_chain(False),
            sources=TaintSources(registers={"m.secret": -1}),
            sinks=("sink",),
            symbolic_registers=frozenset(
                {"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
        )
        tracer = Tracer()
        result = run_compass(task, CegarConfig(
            mc_enabled=False, exact_validation=False, sim_trials=16,
            sim_depth=6, seed=0, trace=tracer))
        spans = Counter(e["name"] for e in tracer.snapshot_events()
                        if e.get("type") == "span")
        eliminated = result.stats.counterexamples_eliminated
        assert eliminated >= 1
        assert len(built) == eliminated
        assert spans["cegar.validate-fast"] == eliminated
        assert spans["cegar.oracle-build"] == eliminated

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
