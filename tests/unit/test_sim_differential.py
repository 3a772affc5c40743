"""Differential fuzzing: a reused simulator vs a fresh one per run.

Every caller builds one :class:`Simulator` per circuit and resets it
per trial, lane or counterexample.  A simulator that has already run
(and been reset) must be indistinguishable from a fresh one: identical
waveforms and state on valid stimulus AND identical error behavior on
invalid stimulus.  An earlier compiled engine masked out-of-range
inputs with ``& sig.mask`` where the interpreter raises; the last class
pins the strict behavior of the translated op program.
"""

import random

import pytest

from repro.bench.fuzz import random_machine
from repro.sim.simulator import SimulationError, Simulator


def _input_widths(circuit):
    return {sig.name: sig.width for sig in circuit.inputs}


def _reused(circuit):
    """A simulator that already ran random stimulus, then was reset."""
    sim = Simulator(circuit)
    sim.run(_random_frames(circuit, random.Random(len(circuit.cells)), 5))
    sim.reset({})
    return sim


def _random_frames(circuit, rng, cycles):
    widths = _input_widths(circuit)
    return [
        {name: rng.getrandbits(width) for name, width in widths.items()}
        for _ in range(cycles)
    ]


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(20))
    def test_identical_waveforms(self, seed):
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 1000)
        frames = _random_frames(circuit, rng, 16)
        names = list(circuit.signals)
        ref = Simulator(circuit).run(frames, record=names)
        reused = _reused(circuit).run(frames, record=names)
        for name in names:
            assert ref.trace(name) == reused.trace(name), name

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_error_behavior(self, seed):
        """Invalid frames raise the same error from both simulators."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 2000)
        widths = _input_widths(circuit)
        frames = _random_frames(circuit, rng, 8)
        # Corrupt one random frame: either drop an input or overflow it.
        victim = rng.randrange(len(frames))
        name = rng.choice(sorted(widths))
        if rng.random() < 0.5:
            del frames[victim][name]
        else:
            frames[victim][name] = (1 << widths[name]) + rng.randrange(16)
        outcomes = []
        for engine in (Simulator, _reused):
            sim = engine(circuit)
            try:
                for frame in frames:
                    sim.step(frame)
                outcomes.append(("ok", None))
            except SimulationError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "error"

    @pytest.mark.parametrize("seed", range(10))
    def test_identical_state_after_run(self, seed):
        circuit = random_machine(seed, width=3)
        frames = _random_frames(circuit, random.Random(seed), 10)
        ref, reused = Simulator(circuit), _reused(circuit)
        for frame in frames:
            assert ref.step(frame) == reused.step(frame)
        assert ref.state() == reused.state()


class TestCompiledStrictness:
    """Regression: a compiled engine masked oversized inputs silently."""

    def _machine(self):
        return random_machine(0, width=3)

    def test_oversized_input_raises(self):
        circuit = self._machine()
        sim = Simulator(circuit)
        with pytest.raises(SimulationError, match="exceeds width"):
            sim.step({"x": 1 << 3})

    def test_negative_input_raises(self):
        circuit = self._machine()
        sim = Simulator(circuit)
        with pytest.raises(SimulationError, match="exceeds width"):
            sim.step({"x": -1})

    def test_error_message_matches_interpreter(self):
        circuit = self._machine()
        with pytest.raises(SimulationError) as info:
            Simulator(circuit).step({"x": 99})
        assert str(info.value) == "input 'x': value 99 exceeds width 3"

    def test_max_value_still_accepted(self):
        circuit = self._machine()
        sim = Simulator(circuit)
        sim.step({"x": 7})
        assert sim.peek("x") == 7


class TestBatchDifferentialFuzz:
    """The 20-seed harness, as a sweep: one simulator, 16 lanes.

    Same seeds and stimuli as :class:`TestDifferentialFuzz`, with the 16
    frames also driven as 16 lanes on one simulator reset per lane
    (lane k replays the frames rotated by k) — every lane must match its
    own fresh run.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_waveforms(self, seed):
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 1000)
        frames = _random_frames(circuit, rng, 16)
        names = list(circuit.signals)
        lanes = [frames[k:] + frames[:k] for k in range(16)]
        sweep = Simulator(circuit)
        for k in range(16):
            sweep.reset({})
            wf = sweep.run(lanes[k], record=names)
            ref = Simulator(circuit).run(lanes[k], record=names)
            for name in names:
                assert wf.trace(name) == ref.trace(name), (name, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_error_behavior(self, seed):
        """The corrupted frame raises the fresh run's message on every
        lane of a sweep, and the error does not stick to the simulator."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 2000)
        widths = _input_widths(circuit)
        frames = _random_frames(circuit, rng, 8)
        good = [dict(frame) for frame in frames]
        victim = rng.randrange(len(frames))
        name = rng.choice(sorted(widths))
        if rng.random() < 0.5:
            del frames[victim][name]
        else:
            frames[victim][name] = (1 << widths[name]) + rng.randrange(16)
        with pytest.raises(SimulationError) as scalar_info:
            Simulator(circuit).run(frames)
        sweep = Simulator(circuit)
        for _ in range(4):
            sweep.reset({})
            with pytest.raises(SimulationError) as sweep_info:
                sweep.run(frames)
            assert str(sweep_info.value) == str(scalar_info.value)
            assert sweep.cycle == victim
        sweep.reset({})
        names = list(circuit.signals)
        clean = sweep.run(good, record=names)
        ref = Simulator(circuit).run(good, record=names)
        for signal in names:
            assert clean.trace(signal) == ref.trace(signal), signal
