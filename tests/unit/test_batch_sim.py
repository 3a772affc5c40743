"""Metamorphic and integration tests for the bit-parallel batch engine.

These pin the *relations* that make batching trustworthy: lanes are
independent (permutation invariance), broadcasting equals scalar runs,
K=1 degenerates to the scalar interpreter, ragged stimulus is rejected up
front, taint state slices per lane, coverage is the union of lanes, and
the obs counters surface lane throughput.
"""

import random
import tracemalloc

import pytest

from repro.bench.fuzz import random_machine
from repro.hdl import ModuleBuilder
from repro.hdl.cells import Cell, CellOp
from repro.hdl.signals import Signal, SignalKind
from repro.obs import Tracer
from repro.obs.summarize import render_summary, summary_from_events
from repro.sim import (
    BatchSimulator,
    Simulator,
    batch_program_for,
)
from repro.sim import batch as batch_module
from repro.sim.batch import CHUNK_STATEMENTS, HOT_STEPS, BatchProgram
from repro.sim.coverage import CoverageCollector
from repro.sim.simulator import SimulationError
from repro.taint import TaintSources, glift_scheme, instrument

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import build_mux_chain, random_cell_circuit, random_stimulus  # noqa: E402


def _input_widths(circuit):
    return {sig.name: sig.width for sig in circuit.inputs}


def _lane_stimuli(circuit, rng, lanes, cycles):
    widths = _input_widths(circuit)
    return [
        [{name: rng.getrandbits(width) for name, width in widths.items()}
         for _ in range(cycles)]
        for _ in range(lanes)
    ]


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(8))
    def test_lane_permutation_invariance(self, seed):
        """Permuting the lanes permutes the results and nothing else."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 100)
        stimuli = _lane_stimuli(circuit, rng, lanes=16, cycles=6)
        perm = list(range(16))
        rng.shuffle(perm)
        names = list(circuit.signals)
        base = BatchSimulator(circuit, lanes=16).run(stimuli, record=names)
        shuffled = BatchSimulator(circuit, lanes=16).run(
            [stimuli[perm[k]] for k in range(16)], record=names)
        for k in range(16):
            for name in names:
                assert (shuffled.lane_trace(name, k)
                        == base.lane_trace(name, perm[k])), (name, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_broadcast_equals_scalar(self, seed):
        """One frame per cycle broadcast to all lanes == a scalar run."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 200)
        widths = _input_widths(circuit)
        frames = [{n: rng.getrandbits(w) for n, w in widths.items()}
                  for _ in range(8)]
        names = list(circuit.signals)
        batch = BatchSimulator(circuit, lanes=7).run(frames, record=names)
        scalar = Simulator(circuit).run(frames, record=names)
        for lane in range(7):
            for name in names:
                assert batch.lane_trace(name, lane) == scalar.trace(name), name

    @pytest.mark.parametrize("seed", range(8))
    def test_single_lane_equals_compiled(self, seed):
        """The K=1 compiled program steps exactly like the interpreter."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 300)
        widths = _input_widths(circuit)
        frames = [{n: rng.getrandbits(w) for n, w in widths.items()}
                  for _ in range(8)]
        bsim = BatchSimulator(circuit, lanes=1)
        ref = Simulator(circuit)
        for frame in frames:
            (batch_out,) = bsim.step([frame])
            assert batch_out == ref.step(frame)
        assert bsim.state(0) == ref.state()

    def test_ragged_stimulus_rejected_up_front(self):
        circuit = random_machine(0, width=3)
        widths = _input_widths(circuit)
        frame = {n: 0 for n in widths}
        bsim = BatchSimulator(circuit, lanes=3)
        with pytest.raises(SimulationError, match="ragged stimulus"):
            bsim.run([[frame] * 4, [frame] * 4, [frame] * 3])
        # Rejection happened before any lane stepped.
        assert bsim.cycle == 0

    def test_wrong_lane_count_rejected(self):
        circuit = random_machine(0, width=3)
        frame = {n: 0 for n in _input_widths(circuit)}
        bsim = BatchSimulator(circuit, lanes=4)
        with pytest.raises(SimulationError, match="input frames for 4 lanes"):
            bsim.step([frame, frame])
        with pytest.raises(SimulationError, match="per-lane stimuli for 4 lanes"):
            bsim.run([[frame], [frame]])
        with pytest.raises(SimulationError, match="initial states for 4 lanes"):
            BatchSimulator(circuit, lanes=4, initial_states=[{}, {}])

    def test_bad_lane_count_rejected(self):
        with pytest.raises(SimulationError, match="lane count"):
            BatchSimulator(random_machine(0, width=3), lanes=0)

    def test_peek_before_evaluate(self):
        """Pre-step peeks: registers readable, wires raise like scalar."""
        circuit = random_machine(0, width=3)
        bsim = BatchSimulator(circuit, lanes=2)
        scalar = Simulator(circuit)
        reg_name = circuit.registers[0].q.name
        assert bsim.peek(reg_name, 0) == scalar.peek(reg_name)
        wire = next(n for n in circuit.signals
                    if n not in {r.q.name for r in circuit.registers}
                    and n not in _input_widths(circuit))
        with pytest.raises(SimulationError) as batch_info:
            bsim.peek(wire, 0)
        with pytest.raises(SimulationError) as scalar_info:
            scalar.peek(wire)
        assert str(batch_info.value) == str(scalar_info.value)

    def test_program_memoized_and_lane_independent(self):
        circuit = random_machine(1, width=3)
        assert batch_program_for(circuit) is batch_program_for(circuit)
        assert (BatchSimulator(circuit, lanes=2).program
                is BatchSimulator(circuit, lanes=200).program)

    def test_cell_added_after_build_is_simulated(self):
        """Mutating a circuit drops its memoized program, so a monitor
        added after a batch run is simulated like the scalar engine
        simulates it."""
        circuit = random_machine(2, width=3)
        stale = batch_program_for(circuit)
        src = circuit.outputs[0]
        mon = Signal("mon", src.width, SignalKind.OUTPUT)
        circuit.add_cell(Cell(CellOp.NOT, mon, (src,)))
        assert batch_program_for(circuit) is not stale
        frame = {n: 1 for n in _input_widths(circuit)}
        bsim = BatchSimulator(circuit, lanes=2)
        bsim.step(frame)
        scalar = Simulator(circuit)
        scalar.step(frame)
        assert bsim.peek("mon", 0) == scalar.peek("mon")

    def test_per_lane_initial_states(self):
        circuit = build_mux_chain(True)
        inits = [{"m.secret": k, "m.pub1": 15 - k} for k in range(16)]
        bsim = BatchSimulator(circuit, lanes=16, initial_states=inits)
        for k in range(16):
            assert bsim.peek("m.secret", k) == k
            assert bsim.peek("m.pub1", k) == 15 - k
        assert bsim.state(3) == Simulator(circuit, initial_state=inits[3]).state()


    def test_peek_after_step_reads_wires_pre_edge(self):
        """A wire aliasing a register's planes keeps its in-cycle value.

        Outputs ``o1``/``o2`` compile to the registers' own slots; after
        the clock edge the scalar ``peek`` still reads them as they were
        in the cycle, and so must the batch engine.
        """
        b = ModuleBuilder("pipe")
        x = b.input("x", 3)
        r1 = b.reg("r1", 3, reset=5)
        r1.drive(x)
        r2 = b.reg("r2", 3)
        r2.drive(r1)
        b.output("o1", r1)
        b.output("o2", r2)
        circuit = b.build()
        rng = random.Random(3)
        stimuli = [[{"x": rng.getrandbits(3)} for _ in range(5)] for _ in range(4)]
        bsim = BatchSimulator(circuit, lanes=4)
        scalars = [Simulator(circuit) for _ in range(4)]
        for t in range(5):
            bsim.advance([stimuli[k][t] for k in range(4)])
            for k, scalar in enumerate(scalars):
                scalar.step(stimuli[k][t])
                assert bsim.snapshot(k) == scalar.snapshot(), (t, k)


class TestCompiledProgram:
    @pytest.mark.parametrize("shape", ["const", "one_bit", "no_regs"])
    def test_clock_edge_cases_match_scalar(self, shape):
        """Constant d-planes, a lone register bit, and no registers."""
        b = ModuleBuilder("clk")
        x = b.input("x", 3)
        if shape == "const":
            r = b.reg("r", 4, reset=9)
            r.drive(b.cat(b.const(1, 1), x))   # top bit constant 1
            z = b.reg("z", 2, reset=3)
            z.drive(b.const(0, 2))
            b.output("o", r ^ z.zext(4))
        elif shape == "one_bit":
            r = b.reg("r", 1, reset=1)
            r.drive(x.redxor())
            b.output("o", r.zext(3) + x)
        else:
            b.output("o", x + 1)
        circuit = b.build()
        rng = random.Random(5)
        stimuli = _lane_stimuli(circuit, rng, lanes=6, cycles=5)
        names = list(circuit.signals)
        batch = BatchSimulator(circuit, lanes=6).run(stimuli, record=names)
        for lane in range(6):
            scalar = Simulator(circuit).run(stimuli[lane], record=names)
            for name in names:
                assert batch.lane_trace(name, lane) == scalar.trace(name), name

    def test_multi_chunk_step_body_matches_scalar(self):
        """A step body of several compiled chunks runs lane for lane
        like the scalar interpreter."""
        circuit = random_machine(5, width=12, max_regs=3, max_ops=30)
        program = batch_program_for(circuit)
        program.tier_up()
        inputs = sum(sig.width for sig in circuit.inputs)
        statements = program.n_slots - program.n_reg_slots - inputs
        assert statements > 2 * CHUNK_STATEMENTS
        rng = random.Random(11)
        stimuli = _lane_stimuli(circuit, rng, lanes=24, cycles=6)
        names = list(circuit.signals)
        batch = BatchSimulator(circuit, lanes=24).run(stimuli, record=names)
        for lane in range(24):
            scalar = Simulator(circuit).run(stimuli[lane], record=names)
            for name in names:
                assert batch.lane_trace(name, lane) == scalar.trace(name), name
        assert program.compiled and program.interpreted_steps == 0

    def test_compile_peak_memory_on_instrumented_rocket(self):
        """Building instrumented tiny Rocket's program and compiling its
        ~5100-statement step body stays under 8 MB of peak allocation;
        one unchunked ``compile()`` of that body alone peaks near
        28 MB."""
        from repro.cegar.loop import instrument_task
        from repro.contracts import make_contract_task
        from repro.cores import CoreConfig, build_rocket

        task = make_contract_task(build_rocket(CoreConfig(
            xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)))
        design, _prop = instrument_task(task, task.initial_scheme())
        tracemalloc.start()
        try:
            program = BatchProgram(design.circuit)
            program.tier_up()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert program.compiled
        assert program.n_slots > 5000
        assert peak < 8 * 2**20


class TestTiers:
    """A program is interpreted for :data:`HOT_STEPS` steps, then compiled."""

    @staticmethod
    def _count_compiles(monkeypatch):
        calls = []

        def counting_compile(*args, **kwargs):
            calls.append(args[1])
            return compile(*args, **kwargs)
        monkeypatch.setattr(batch_module, "compile", counting_compile,
                            raising=False)
        return calls

    def test_short_run_never_compiles(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        circuit = random_machine(3, width=4, max_regs=3, max_ops=12)
        frame = {n: 1 for n in _input_widths(circuit)}
        first = BatchSimulator(circuit, lanes=4)
        second = BatchSimulator(circuit, lanes=1)
        for _ in range(HOT_STEPS // 2):
            first.advance(frame)
        second.run([frame] * (HOT_STEPS - HOT_STEPS // 2), record=[])
        program = batch_program_for(circuit)
        assert program.interpreted_steps == HOT_STEPS
        assert not program.compiled
        assert calls == []

    def test_hot_program_compiles_exactly_once(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        circuit = random_machine(5, width=12, max_regs=3, max_ops=30)
        program = batch_program_for(circuit)
        chunks = -(-len(program.ops) // CHUNK_STATEMENTS)
        assert chunks > 1
        frame = {n: 0 for n in _input_widths(circuit)}
        sim = BatchSimulator(circuit, lanes=2)
        for _ in range(HOT_STEPS + 1):
            sim.advance(frame)
        assert program.compiled
        assert len(calls) == chunks
        for _ in range(2 * HOT_STEPS):
            sim.advance(frame)
        BatchSimulator(circuit, lanes=3).advance(frame)
        assert len(calls) == chunks
        assert program.interpreted_steps == HOT_STEPS

    @pytest.mark.parametrize("tier", ["interpreted", "compiled"])
    def test_every_opcode_matches_scalar(self, tier):
        """A circuit whose op program uses every opcode runs lane for
        lane like the scalar interpreter on both tiers."""
        b = ModuleBuilder("ops")
        x = b.input("x", 3)
        y = b.input("y", 3)
        one = b.const(1, 1)
        r = b.reg("r", 4, reset=9)
        r.drive(b.cat(one, x ^ y))              # CONST1 d-plane, XOR2
        z = b.reg("z", 2, reset=3)
        z.drive(b.const(0, 2))                  # CONST0 d-plane
        b.output("and", (x & y).redor())        # AND2, OR
        b.output("or", (x | y).redand())        # OR2, AND
        b.output("not", ~x)                     # NOT
        b.output("xor", x.redxor())             # XOR
        b.output("xnor", b.cat(one, x).redxor())        # XNOR
        b.output("xnor2", b.cat(one, x[1:0]).redxor())  # XNOR2
        b.output("regs", b.cat(r, z))
        circuit = b.build()
        program = batch_program_for(circuit)
        assert {op[0] for op in program.ops} == set(range(11))
        if tier == "compiled":
            program.tier_up()
        rng = random.Random(13)
        stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=6)
        names = list(circuit.signals)
        batch = BatchSimulator(circuit, lanes=8).run(stimuli, record=names)
        assert program.compiled == (tier == "compiled")
        for lane in range(8):
            scalar = Simulator(circuit).run(stimuli[lane], record=names)
            for name in names:
                assert batch.lane_trace(name, lane) == scalar.trace(name), name

    def test_planes_identical_across_mid_run_switch(self, monkeypatch):
        """Every plane after every step is the same whether the program
        switches tiers mid-run, is compiled from the start, or is only
        ever interpreted."""
        circuit = random_machine(9, width=6, max_regs=4, max_ops=20)
        rng = random.Random(9)
        lanes, cycles = 8, HOT_STEPS + 16
        widths = _input_widths(circuit)
        frames = [[{n: rng.getrandbits(w) for n, w in widths.items()}
                   for _ in range(lanes)] for _ in range(cycles)]

        def plane_history(program):
            circuit._batch_program = program
            sim = BatchSimulator(circuit, lanes=lanes)
            history = []
            for lane_frames in frames:
                sim.advance(lane_frames)
                history.append(list(sim._planes))
            return history

        switching = BatchProgram(circuit)
        mid_run = plane_history(switching)
        assert switching.compiled
        compiled = BatchProgram(circuit)
        compiled.tier_up()
        assert plane_history(compiled) == mid_run
        monkeypatch.setattr(batch_module, "HOT_STEPS", 10 * cycles)
        interpreted = BatchProgram(circuit)
        assert plane_history(interpreted) == mid_run
        assert not interpreted.compiled


class TestTaintLanes:
    def test_lane_sliced_taint_state(self):
        """Each lane of an instrumented design carries its own taint.

        Lane k taints only bit k%4 of the secret; the per-lane sink
        taints must match scalar instrumented runs exactly.
        """
        circuit = build_mux_chain(True)
        design = instrument(circuit, glift_scheme(),
                            TaintSources(registers={"m.secret": -1}))
        # Instrumentation lowers to gates: per-bit sink taints plus the
        # shadow-taint registers themselves.
        sink_taints = sorted(t for name, t in design.taint_name.items()
                             if name.startswith("sink["))
        taint_regs = sorted(set(design.taint_name.values())
                            & {r.q.name for r in design.circuit.registers})
        assert sink_taints and taint_regs
        names = sink_taints + taint_regs
        lanes = 8
        rng = random.Random(7)
        stimuli = [
            [{"sel1": rng.getrandbits(1), "sel2": rng.getrandbits(1)}
             for _ in range(6)]
            for _ in range(lanes)
        ]
        reg_names = {r.q.name for r in design.circuit.registers}
        inits = []
        for _ in range(lanes):
            secret = rng.getrandbits(4)
            inits.append({f"m.secret[{b}]": (secret >> b) & 1
                          for b in range(4)
                          if f"m.secret[{b}]" in reg_names})
        batch = BatchSimulator(design.circuit, lanes=lanes,
                               initial_states=inits)
        wf = batch.run(stimuli, record=names)
        for lane in range(lanes):
            scalar = Simulator(design.circuit, initial_state=inits[lane]).run(
                stimuli[lane], record=names)
            for name in names:
                assert wf.lane_trace(name, lane) == scalar.trace(name), name

    def test_batch_waveform_lane_slice_truncation(self):
        circuit = random_machine(2, width=3)
        widths = _input_widths(circuit)
        frames = [{n: 0 for n in widths}] * 5
        wf = BatchSimulator(circuit, lanes=2).run([frames, frames])
        short = wf.lane(0, length=3)
        assert short.length == 3
        assert wf.lane(1).length == 5


class TestCoverageUnion:
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_coverage_is_union_of_scalar_runs(self, seed):
        """64 batched lanes toggle exactly the union of 64 scalar runs."""
        circuit = random_cell_circuit(seed)
        lanes = 64
        stimuli = [random_stimulus(seed * 1000 + k, 6) for k in range(lanes)]
        regs = [reg.q.name for reg in circuit.registers]

        batched = CoverageCollector(BatchSimulator(circuit, lanes=lanes), regs)
        for t in range(6):
            batched.step([stimuli[k][t] for k in range(lanes)])
        batch_report = batched.report()

        union = {name: [0, 0] for name in regs}
        for k in range(lanes):
            scalar = CoverageCollector(Simulator(circuit), regs)
            for frame in stimuli[k]:
                scalar.step(frame)
            for name, cov in scalar.report().signals.items():
                union[name][0] |= cov.seen_zero
                union[name][1] |= cov.seen_one

        for name in regs:
            cov = batch_report.signals[name]
            assert (cov.seen_zero, cov.seen_one) == tuple(union[name]), name


class TestObservability:
    def test_counters_and_gauges_recorded(self):
        circuit = random_machine(0, width=3)
        widths = _input_widths(circuit)
        frames = [{n: 0 for n in widths}] * 10
        tracer = Tracer()
        BatchSimulator(circuit, lanes=16, tracer=tracer).run([frames] * 16)
        summary = summary_from_events(tracer.snapshot_events())
        assert summary.counters["sim.steps"] == 10
        assert summary.counters["sim.lane_steps"] == 160
        assert summary.gauges["sim.lanes"] == 16.0
        assert summary.gauges["sim.steps_per_sec"] > 0
        rendered = render_summary(summary)
        assert "sim.lanes" in rendered
        assert "sim.steps_per_sec" in rendered

    def test_step_counters_accumulate(self):
        circuit = random_machine(0, width=3)
        frame = {n: 0 for n in _input_widths(circuit)}
        tracer = Tracer()
        bsim = BatchSimulator(circuit, lanes=4, tracer=tracer)
        for _ in range(3):
            bsim.step(frame)
        totals = tracer.counter_totals()
        assert totals["sim.steps"] == 3
        assert totals["sim.lane_steps"] == 12
