"""Metamorphic and integration tests for sweeps on one reused simulator.

Every caller builds one :class:`~repro.sim.Simulator` per circuit and
resets it per trial, seed or counterexample: each such run is a *lane*.
These pin the *relations* that make that reuse trustworthy: lanes are
independent (permutation invariance), a repeated stimulus equals a
fresh run, one simulator steps like the ``evaluate_cell`` reference,
a bad frame is rejected before it is stepped, the op program is
translated once per simulator, taint state is per lane, coverage over
a sweep is the union of its lanes, and ``repro simulate`` surfaces the
sweep's counters.
"""

import json
import os
import random
import sys
import tracemalloc

import pytest

from repro.bench.fuzz import random_machine
from repro.cli import main
from repro.formal.counterexample import Counterexample
from repro.hdl import ModuleBuilder
from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, Register
from repro.hdl.signals import Signal, SignalKind
from repro.obs import Tracer
from repro.obs.summarize import render_summary, summary_from_events
from repro.sim import Simulator
from repro.sim import simulator as simulator_module
from repro.sim.coverage import CoverageCollector
from repro.sim.simulator import SimulationError
from repro.taint import TaintSources, glift_scheme, instrument

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import (  # noqa: E402
    ReferenceSimulator, build_mux_chain, random_cell_circuit, random_stimulus,
)

#: Cycles past which a run counts as long.
LONG_RUN = 64


def _input_widths(circuit):
    return {sig.name: sig.width for sig in circuit.inputs}


def _lane_stimuli(circuit, rng, lanes, cycles):
    widths = _input_widths(circuit)
    return [
        [{name: rng.getrandbits(width) for name, width in widths.items()}
         for _ in range(cycles)]
        for _ in range(lanes)
    ]


def _sweep(sim, stimuli, names, inits=None):
    """One waveform per lane, every lane run on ``sim`` after a reset."""
    waves = []
    for lane, frames in enumerate(stimuli):
        sim.reset(inits[lane] if inits else {})
        waves.append(sim.run(frames, record=names))
    return waves


def _assert_matches_reference(circuit, stimuli, waves, names, inits=None):
    for lane, frames in enumerate(stimuli):
        ref = ReferenceSimulator(circuit, inits[lane] if inits else None)
        for cycle, frame in enumerate(frames):
            _, snapshot = ref.step(frame)
            for name in names:
                assert waves[lane].value(name, cycle) == snapshot[name], (
                    name, lane, cycle)


def _every_opcode_circuit():
    """One cell per opcode of the simulator's op program."""
    circuit = Circuit("ops")
    x, y, z = (circuit.add_signal(Signal(name, 3, SignalKind.INPUT))
               for name in ("x", "y", "z"))
    s = circuit.add_signal(Signal("s", 1, SignalKind.INPUT))
    r = Signal("r", 3, SignalKind.REG)
    cells = [
        ("or2", CellOp.OR, (x, y), 3, ()),
        ("and2", CellOp.AND, (x, y), 3, ()),
        ("mux", CellOp.MUX, (s, x, y), 3, ()),
        ("slice", CellOp.SLICE, (x,), 2, (("lo", 1), ("hi", 2))),
        ("eq", CellOp.EQ, (x, y), 1, ()),
        ("not", CellOp.NOT, (x,), 3, ()),
        ("xor2", CellOp.XOR, (x, y), 3, ()),
        ("copy", CellOp.BUF, (r,), 3, ()),
        ("sext", CellOp.SEXT, (x,), 6, ()),
        ("redor", CellOp.REDOR, (x,), 1, ()),
        ("shl", CellOp.SHL, (x, y), 3, ()),
        ("redand", CellOp.REDAND, (x,), 1, ()),
        ("add", CellOp.ADD, (x, y), 3, ()),
        ("neq", CellOp.NEQ, (x, y), 1, ()),
        ("shr", CellOp.SHR, (x, y), 3, ()),
        ("cat2", CellOp.CONCAT, (x, y), 6, ()),
        ("sub", CellOp.SUB, (x, y), 3, ()),
        ("ult", CellOp.ULT, (x, y), 1, ()),
        ("ule", CellOp.ULE, (x, y), 1, ()),
        ("redxor", CellOp.REDXOR, (x,), 1, ()),
        ("and", CellOp.AND, (x, y, z), 3, ()),
        ("or", CellOp.OR, (x, y, z), 3, ()),
        ("xor", CellOp.XOR, (x, y, z), 3, ()),
        ("cat", CellOp.CONCAT, (x, y, z), 9, ()),
    ]
    outs = {name: Signal(name, width, SignalKind.OUTPUT)
            for name, _op, _ins, width, _params in cells}
    circuit.add_register(Register(r, outs["xor"], 5))
    for name, op, ins, _width, params in cells:
        circuit.add_cell(Cell(op, outs[name], ins, params))
    circuit.validate()
    return circuit


def _simulate_cli(capsys, *args):
    assert main(["simulate", "--core", "Sodor", "--workload", "median",
                 *args]) == 0
    return capsys.readouterr().out


def _trace_summary(path):
    return summary_from_events([json.loads(line)
                                for line in path.read_text().splitlines()])


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(8))
    def test_lane_permutation_invariance(self, seed):
        """Permuting the lanes of a sweep permutes the results and
        nothing else."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 100)
        stimuli = _lane_stimuli(circuit, rng, lanes=16, cycles=6)
        perm = list(range(16))
        rng.shuffle(perm)
        names = list(circuit.signals)
        sim = Simulator(circuit)
        base = _sweep(sim, stimuli, names)
        shuffled = _sweep(sim, [stimuli[perm[k]] for k in range(16)], names)
        for k in range(16):
            for name in names:
                assert (shuffled[k].trace(name)
                        == base[perm[k]].trace(name)), (name, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_broadcast_equals_scalar(self, seed):
        """One stimulus swept over 7 lanes == one fresh scalar run, 7 times."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 200)
        widths = _input_widths(circuit)
        frames = [{n: rng.getrandbits(w) for n, w in widths.items()}
                  for _ in range(8)]
        names = list(circuit.signals)
        waves = _sweep(Simulator(circuit), [frames] * 7, names)
        scalar = Simulator(circuit).run(frames, record=names)
        for lane in range(7):
            for name in names:
                assert waves[lane].trace(name) == scalar.trace(name), name

    @pytest.mark.parametrize("seed", range(8))
    def test_single_lane_equals_compiled(self, seed):
        """The simulator's translated op program steps exactly like the
        ``evaluate_cell`` reference: outputs, snapshot and state."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 300)
        widths = _input_widths(circuit)
        frames = [{n: rng.getrandbits(w) for n, w in widths.items()}
                  for _ in range(8)]
        sim = Simulator(circuit)
        ref = ReferenceSimulator(circuit)
        for frame in frames:
            outputs, snapshot = ref.step(frame)
            assert sim.step(frame) == outputs
            assert sim.snapshot() == {**snapshot, **ref.state()}
        assert sim.state() == ref.state()

    def test_ragged_stimulus_rejected_up_front(self):
        """A frame missing an input is rejected before it is stepped:
        the cycle count and the register state stay those of the last
        good frame."""
        circuit = random_machine(0, width=3)
        widths = _input_widths(circuit)
        frame = {n: 1 for n in widths}
        ragged = dict(frame)
        del ragged[sorted(widths)[-1]]
        sim = Simulator(circuit)
        with pytest.raises(SimulationError, match="missing input"):
            sim.run([frame] * 3 + [ragged])
        assert sim.cycle == 3
        good = Simulator(circuit)
        good.run([frame] * 3)
        assert sim.state() == good.state()

    def test_wrong_lane_count_rejected(self, capsys):
        """``repro simulate --lanes`` takes a positive integer."""
        for text in ("-3", "two"):
            with pytest.raises(SystemExit) as info:
                main(["simulate", "--core", "Sodor", "--workload", "median",
                      "--lanes", text])
            assert info.value.code == 2
            assert "--lanes" in capsys.readouterr().err

    def test_bad_lane_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--core", "Sodor", "--workload", "median",
                  "--lanes", "0"])
        assert info.value.code == 2
        assert "lane count must be >= 1, got 0" in capsys.readouterr().err

    def test_peek_before_evaluate(self):
        """Before the first step, and again after every reset, registers
        are readable and wires raise."""
        circuit = random_machine(0, width=3)
        sim = Simulator(circuit)
        reg_name = circuit.registers[0].q.name
        reset_value = circuit.registers[0].reset_value
        wire = next(n for n in circuit.signals
                    if n not in {r.q.name for r in circuit.registers}
                    and n not in _input_widths(circuit))
        frame = {n: 1 for n in _input_widths(circuit)}
        for _ in range(2):
            assert sim.peek(reg_name) == reset_value
            with pytest.raises(SimulationError,
                               match=f"signal {wire!r} has no value yet"):
                sim.peek(wire)
            sim.step(frame)
            sim.peek(wire)
            sim.reset({})

    def test_program_memoized_and_lane_independent(self):
        """A simulator's op program is built once and serves every lane;
        two simulators of one circuit build the same program."""
        circuit = random_machine(1, width=3)
        sim = Simulator(circuit)
        ops = sim._ops
        frame = {n: 1 for n in _input_widths(circuit)}
        for _ in range(3):
            sim.reset({})
            sim.run([frame] * 4)
            assert sim._ops is ops
        assert Simulator(circuit)._ops == ops

    def test_cell_added_after_build_is_simulated(self):
        """A monitor added after a run is simulated by a simulator built
        afterwards, like the reference simulates it."""
        circuit = random_machine(2, width=3)
        frame = {n: 1 for n in _input_widths(circuit)}
        Simulator(circuit).run([frame] * 2)
        src = circuit.outputs[0]
        mon = Signal("mon", src.width, SignalKind.OUTPUT)
        circuit.add_cell(Cell(CellOp.NOT, mon, (src,)))
        sim = Simulator(circuit)
        ref = ReferenceSimulator(circuit)
        for _ in range(3):
            outputs, snapshot = ref.step(frame)
            assert sim.step(frame) == outputs
            assert sim.peek("mon") == snapshot["mon"] == snapshot[src.name] ^ src.mask

    def test_per_lane_initial_states(self):
        circuit = build_mux_chain(True)
        inits = [{"m.secret": k, "m.pub1": 15 - k} for k in range(16)]
        sim = Simulator(circuit)
        for k in range(16):
            sim.reset(inits[k])
            assert sim.peek("m.secret") == k
            assert sim.peek("m.pub1") == 15 - k
            assert sim.state() == Simulator(circuit, initial_state=inits[k]).state()
        sim.reset()
        assert sim.peek("m.secret") == 15

    def test_peek_after_step_reads_wires_pre_edge(self):
        """A wire aliasing a register keeps its in-cycle value.

        Outputs ``o1``/``o2`` are buffers of the registers; after the
        clock edge ``peek`` still reads them as they were in the cycle,
        on every lane of a sweep.
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
        sim = Simulator(circuit)
        for k in range(4):
            sim.reset({})
            ref = ReferenceSimulator(circuit)
            for t in range(5):
                sim.step(stimuli[k][t])
                _, snapshot = ref.step(stimuli[k][t])
                assert sim.peek("o1") == snapshot["o1"], (t, k)
                assert sim.peek("o2") == snapshot["o2"], (t, k)
                assert sim.snapshot() == {**snapshot, **ref.state()}, (t, k)


class TestCompiledProgram:
    @pytest.mark.parametrize("shape", ["const", "one_bit", "no_regs"])
    def test_clock_edge_cases_match_scalar(self, shape):
        """Constant ``d`` inputs, a lone one-bit register, and no
        registers: the clock's gather of ``d`` slots in each case."""
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
        waves = _sweep(Simulator(circuit), stimuli, names)
        _assert_matches_reference(circuit, stimuli, waves, names)

    def test_multi_chunk_step_body_matches_scalar(self):
        """A large op program runs lane for lane like the reference."""
        circuit = random_machine(5, width=12, max_regs=3, max_ops=30)
        sim = Simulator(circuit)
        assert len(sim._ops) > 30
        rng = random.Random(11)
        stimuli = _lane_stimuli(circuit, rng, lanes=24, cycles=6)
        names = list(circuit.signals)
        waves = _sweep(sim, stimuli, names)
        _assert_matches_reference(circuit, stimuli, waves, names)

    def test_compile_peak_memory_on_instrumented_rocket(self):
        """Translating instrumented tiny Rocket (~2000 cells) into its op
        program, topological sort included, stays under 2 MB of peak
        allocation (about 0.45 MB measured)."""
        from repro.cegar.loop import instrument_task
        from repro.contracts import make_contract_task
        from repro.cores import CoreConfig, build_rocket

        task = make_contract_task(build_rocket(CoreConfig(
            xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)))
        design, _prop = instrument_task(task, task.initial_scheme())
        tracemalloc.start()
        try:
            sim = Simulator(design.circuit)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sim._ops) > 1000
        assert peak < 2 * 2**20


class TestTiers:
    """A simulator translates its circuit once, when it is built."""

    @staticmethod
    def _count_translations(monkeypatch):
        calls = []

        def counting(translate):
            def wrapper(cell, out, slot_of):
                calls.append(cell.out.name)
                return translate(cell, out, slot_of)
            return wrapper
        table = {op: translate if translate is None else counting(translate)
                 for op, translate in simulator_module._TRANSLATE.items()}
        monkeypatch.setattr(simulator_module, "_TRANSLATE", table)
        return calls

    def test_short_run_never_compiles(self, monkeypatch):
        """Runs, steps and resets translate nothing."""
        calls = self._count_translations(monkeypatch)
        circuit = random_machine(3, width=4, max_regs=3, max_ops=12)
        frame = {n: 1 for n in _input_widths(circuit)}
        sim = Simulator(circuit)
        built = len(calls)
        assert built > 0
        for _ in range(LONG_RUN // 2):
            sim.step(frame)
        sim.reset({})
        sim.run([frame] * (LONG_RUN // 2), record=[])
        assert len(calls) == built

    def test_hot_program_compiles_exactly_once(self, monkeypatch):
        """Each cell is translated once per simulator, however long it runs."""
        calls = self._count_translations(monkeypatch)
        circuit = random_machine(5, width=12, max_regs=3, max_ops=30)
        frame = {n: 0 for n in _input_widths(circuit)}
        sim = Simulator(circuit)
        assert len(calls) == len(set(calls)) > 1
        built = list(calls)
        for _ in range(3 * LONG_RUN):
            sim.step(frame)
        sim.reset({})
        sim.run([frame] * LONG_RUN, record=[])
        assert calls == built
        Simulator(circuit).step(frame)
        assert calls == built + built

    @pytest.mark.parametrize("tier", ["interpreted", "compiled"])
    def test_every_opcode_matches_scalar(self, tier):
        """A circuit whose op program uses every opcode runs lane for
        lane like the ``evaluate_cell`` reference ("interpreted") and
        like fresh simulators ("compiled")."""
        circuit = _every_opcode_circuit()
        sim = Simulator(circuit)
        assert {op[0] for op in sim._ops} == set(range(simulator_module.OP_CAT + 1))
        rng = random.Random(13)
        stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=6)
        names = list(circuit.signals)
        waves = _sweep(sim, stimuli, names)
        if tier == "interpreted":
            _assert_matches_reference(circuit, stimuli, waves, names)
        else:
            for lane in range(8):
                fresh = Simulator(circuit).run(stimuli[lane], record=names)
                for name in names:
                    assert waves[lane].trace(name) == fresh.trace(name), name

    def test_planes_identical_across_mid_run_switch(self):
        """Every value after every step is the same whether a run
        switches to a second simulator mid-run (handing over the
        register state), stays on one simulator, or runs on the
        reference."""
        circuit = random_machine(9, width=6, max_regs=4, max_ops=20)
        rng = random.Random(9)
        cycles = LONG_RUN + 16
        widths = _input_widths(circuit)
        frames = [{n: rng.getrandbits(w) for n, w in widths.items()}
                  for _ in range(cycles)]

        one = Simulator(circuit)
        history = []
        for frame in frames:
            one.step(frame)
            history.append(one.snapshot())

        first = Simulator(circuit)
        switched = []
        for frame in frames[:LONG_RUN]:
            first.step(frame)
            switched.append(first.snapshot())
        second = Simulator(circuit, initial_state=first.state())
        for frame in frames[LONG_RUN:]:
            second.step(frame)
            switched.append(second.snapshot())
        assert switched == history

        ref = ReferenceSimulator(circuit)
        reference = []
        for frame in frames:
            _, snapshot = ref.step(frame)
            reference.append({**snapshot, **ref.state()})
        assert reference == history


class TestTaintLanes:
    def test_lane_sliced_taint_state(self):
        """Each lane of a sweep over an instrumented design carries its
        own taint.

        Each lane draws its own secret; the per-lane sink and shadow
        register taints must match fresh instrumented runs exactly.
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
        waves = _sweep(Simulator(design.circuit), stimuli, names, inits)
        for lane in range(lanes):
            scalar = Simulator(design.circuit, initial_state=inits[lane]).run(
                stimuli[lane], record=names)
            for name in names:
                assert waves[lane].trace(name) == scalar.trace(name), name

    def test_batch_waveform_lane_slice_truncation(self):
        """A short counterexample replayed after a longer one on the same
        simulator gets a waveform of its own length."""
        circuit = random_machine(2, width=3)
        widths = _input_widths(circuit)
        frames = [{n: 1 for n in widths}] * 5
        sim = Simulator(circuit)
        long_wave = Counterexample(5, frames, {}).replay_on(sim)
        short = Counterexample(3, frames[:3], {}).replay_on(sim)
        assert long_wave.length == 5
        assert short.length == 3
        for name in circuit.signals:
            assert short.trace(name) == long_wave.trace(name)[:3], name


class TestCoverageUnion:
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_coverage_is_union_of_scalar_runs(self, seed):
        """One collector over 64 lanes of a sweep toggles exactly the
        union of 64 collectors over fresh runs."""
        circuit = random_cell_circuit(seed)
        lanes = 64
        stimuli = [random_stimulus(seed * 1000 + k, 6) for k in range(lanes)]
        regs = [reg.q.name for reg in circuit.registers]

        sim = Simulator(circuit)
        swept = CoverageCollector(sim, regs)
        for k in range(lanes):
            sim.reset({})
            for frame in stimuli[k]:
                swept.step(frame)
        sweep_report = swept.report()

        union = {name: [0, 0] for name in regs}
        for k in range(lanes):
            scalar = CoverageCollector(Simulator(circuit), regs)
            for frame in stimuli[k]:
                scalar.step(frame)
            for name, cov in scalar.report().signals.items():
                union[name][0] |= cov.seen_zero
                union[name][1] |= cov.seen_one

        for name in regs:
            cov = sweep_report.signals[name]
            assert (cov.seen_zero, cov.seen_one) == tuple(union[name]), name


class TestObservability:
    def test_counters_and_gauges_recorded(self, capsys, tmp_path):
        """``repro simulate --lanes 4 --trace`` records the sweep's lane
        count, its steps (the sum of the per-seed cycle counts) and its
        rate, and the summary renders them."""
        trace = tmp_path / "sim.jsonl"
        out = _simulate_cli(capsys, "--lanes", "4", "--trace", str(trace))
        cycles = [int(line.split(": ")[1].split()[0])
                  for line in out.splitlines() if line.startswith("  seed ")]
        assert len(cycles) == 4
        summary = _trace_summary(trace)
        assert summary.counters["sim.steps"] == sum(cycles)
        assert summary.gauges["sim.lanes"] == 4.0
        assert summary.gauges["sim.steps_per_sec"] > 0
        rendered = render_summary(summary)
        assert "sim.lanes" in rendered
        assert "sim.steps_per_sec" in rendered

    def test_step_counters_accumulate(self, capsys, tmp_path):
        """The steps of a three-seed sweep are those of its three
        one-seed runs together, and a tracer sums repeated counts."""
        sweep = tmp_path / "sweep.jsonl"
        _simulate_cli(capsys, "--lanes", "3", "--trace", str(sweep))
        tracer = Tracer()
        for seed in range(3):
            single = tmp_path / f"seed{seed}.jsonl"
            _simulate_cli(capsys, "--seed", str(seed), "--trace", str(single))
            summary = _trace_summary(single)
            assert summary.gauges["sim.lanes"] == 1.0
            tracer.count("sim.steps", summary.counters["sim.steps"])
        totals = tracer.counter_totals()
        assert totals["sim.steps"] == _trace_summary(sweep).counters["sim.steps"]
