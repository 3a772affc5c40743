"""Differential fuzzing: Simulator vs a one-lane BatchSimulator.

The interpreter and the compiled bit-plane engine must be
indistinguishable — identical waveforms on valid stimulus AND identical
error behavior on invalid stimulus.  A compiled engine once masked
out-of-range inputs with ``& sig.mask`` where the interpreter raises;
these tests pin the strict behavior.
"""

import random

import pytest

from repro.bench.fuzz import random_machine
from repro.sim import BatchSimulator
from repro.sim.simulator import SimulationError, Simulator


def _input_widths(circuit):
    return {sig.name: sig.width for sig in circuit.inputs}


def _one_lane(circuit):
    return BatchSimulator(circuit, lanes=1)


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
        fast = _one_lane(circuit).run(frames, record=names).lane(0)
        for name in names:
            assert ref.trace(name) == fast.trace(name), name

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_error_behavior(self, seed):
        """Invalid frames raise the same error from both engines."""
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
        for engine in (Simulator, _one_lane):
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
        ref, fast = Simulator(circuit), _one_lane(circuit)
        for frame in frames:
            assert [ref.step(frame)] == fast.step(frame)
        assert ref.state() == fast.state(0)


class TestCompiledStrictness:
    """Regression: a compiled engine masked oversized inputs silently."""

    def _machine(self):
        return random_machine(0, width=3)

    def test_oversized_input_raises(self):
        circuit = self._machine()
        sim = _one_lane(circuit)
        with pytest.raises(SimulationError, match="exceeds width"):
            sim.step({"x": 1 << 3})

    def test_negative_input_raises(self):
        circuit = self._machine()
        sim = _one_lane(circuit)
        with pytest.raises(SimulationError, match="exceeds width"):
            sim.step({"x": -1})

    def test_error_message_matches_interpreter(self):
        circuit = self._machine()
        messages = []
        for engine in (Simulator, _one_lane):
            with pytest.raises(SimulationError) as info:
                engine(circuit).step({"x": 99})
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_max_value_still_accepted(self):
        circuit = self._machine()
        ref, fast = Simulator(circuit), _one_lane(circuit)
        assert [ref.step({"x": 7})] == fast.step({"x": 7})


class TestBatchDifferentialFuzz:
    """The 20-seed harness, third engine: BatchSimulator lanes.

    Same seeds and stimuli as :class:`TestDifferentialFuzz`, with the 16
    scalar frames also driven as 16 concurrent lanes (lane k replays
    frames rotated by k) — every lane must match its own scalar run.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_waveforms(self, seed):
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 1000)
        frames = _random_frames(circuit, rng, 16)
        names = list(circuit.signals)
        lanes = [frames[k:] + frames[:k] for k in range(16)]
        batch = BatchSimulator(circuit, lanes=16).run(lanes, record=names)
        ref = Simulator(circuit)
        for k in range(16):
            ref.reset({})
            wf = ref.run(lanes[k], record=names)
            for name in names:
                assert batch.lane_trace(name, k) == wf.trace(name), (name, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_error_behavior(self, seed):
        """The corrupted frame raises the scalar message from the batch."""
        circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
        rng = random.Random(seed + 2000)
        widths = _input_widths(circuit)
        frames = _random_frames(circuit, rng, 8)
        victim = rng.randrange(len(frames))
        name = rng.choice(sorted(widths))
        if rng.random() < 0.5:
            del frames[victim][name]
        else:
            frames[victim][name] = (1 << widths[name]) + rng.randrange(16)
        with pytest.raises(SimulationError) as scalar_info:
            Simulator(circuit).run(frames)
        with pytest.raises(SimulationError) as batch_info:
            BatchSimulator(circuit, lanes=4).run([list(frames)] * 4)
        assert str(batch_info.value) == str(scalar_info.value)
