"""Differential battery: runs swept on one reused simulator.

Every caller (the CEGAR prefilter, counterexample replay, refinement
pruning, ``repro simulate --lanes K``) builds one
:class:`~repro.sim.Simulator` per circuit and resets it per trial, seed
or counterexample: each such run is a *lane* of a sweep.  A lane must be
indistinguishable from the same run on both scalar engines, a fresh
``Simulator`` and the ``evaluate_cell`` reference (``ReferenceSimulator``
in ``tests/conftest.py``) — 52 fuzzed sequential machines, 64 lanes
each, checked for identical signal values, waveforms, and error behavior
(out-of-range or missing inputs raise ``SimulationError`` with the fresh
simulator's exact message, at the same step).  The "compiled" cases
sweep a simulator that first ran a long warm-up run, with random
initial register states per lane, so nothing a long run leaves behind
may leak into the next lane.
"""

import os
import random
import sys

import pytest

from repro.bench.fuzz import random_machine
from repro.formal.counterexample import Counterexample
from repro.sim import Simulator
from repro.sim.simulator import SimulationError

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import ReferenceSimulator  # noqa: E402

LANES = 64
CYCLES = 8
SEEDS = range(52)  # 52 fuzzed circuits
#: Cycles of the warm-up run before a "compiled" sweep, and the length
#: of the long lanes.
WARM_CYCLES = 64


def _input_widths(circuit):
    return {sig.name: sig.width for sig in circuit.inputs}


def _lane_stimuli(circuit, rng, lanes=LANES, cycles=CYCLES):
    widths = _input_widths(circuit)
    return [
        [{name: rng.getrandbits(width) for name, width in widths.items()}
         for _ in range(cycles)]
        for _ in range(lanes)
    ]


def _circuit(seed):
    return random_machine(seed, width=4, max_regs=3, max_ops=8)


def _lane_inits(circuit, rng, tier, lanes=LANES):
    """Per-lane initial register states: reset values unless "compiled"."""
    if tier != "compiled":
        return [{} for _ in range(lanes)]
    return [{reg.q.name: rng.getrandbits(reg.q.width) for reg in circuit.registers}
            for _ in range(lanes)]


def _sweep_simulator(circuit, tier):
    """The one simulator a sweep runs on; warmed up for "compiled"."""
    sim = Simulator(circuit)
    if tier == "compiled":
        rng = random.Random(len(circuit.cells))
        sim.run(_lane_stimuli(circuit, rng, lanes=1, cycles=WARM_CYCLES)[0],
                record=[])
        assert sim.cycle == WARM_CYCLES
    return sim


def _reference_snapshots(circuit, frames, initial_state):
    ref = ReferenceSimulator(circuit, initial_state)
    return [ref.step(frame)[1] for frame in frames]


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_match_both_scalar_engines(seed):
    """64 lanes replayed on one simulator == 64 fresh scalar runs, and
    every recorded value == the ``evaluate_cell`` reference."""
    _check_lanes_match(seed, "interpreted")


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_lanes_match_both_scalar_engines(seed):
    """The same, swept after a long warm-up run, per-lane initial states."""
    _check_lanes_match(seed, "compiled")


def _check_lanes_match(seed, tier):
    circuit = _circuit(seed)
    rng = random.Random(seed + 5000)
    stimuli = _lane_stimuli(circuit, rng)
    inits = _lane_inits(circuit, rng, tier)
    names = list(circuit.signals)
    sim = _sweep_simulator(circuit, tier)
    for lane in range(LANES):
        cex = Counterexample(CYCLES, stimuli[lane], inits[lane])
        lane_wf = cex.replay_on(sim, record=names)
        assert lane_wf.length == CYCLES
        ref_wf = Simulator(circuit, initial_state=inits[lane]).run(
            stimuli[lane], record=names)
        snapshots = _reference_snapshots(circuit, stimuli[lane], inits[lane])
        for name in names:
            trace = ref_wf.trace(name)
            assert trace == lane_wf.trace(name), (name, lane)
            assert trace == [snap[name] for snap in snapshots], (name, lane)


@pytest.mark.parametrize("seed", range(8))
def test_lanes_match_across_tier_up(seed):
    """Long lanes, one after another on one simulator, match the
    reference cycle for cycle."""
    circuit = _circuit(seed)
    rng = random.Random(seed + 9000)
    stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=WARM_CYCLES + 8)
    names = list(circuit.signals)
    sim = Simulator(circuit)
    for lane in range(8):
        sim.reset({})
        wf = sim.run(stimuli[lane], record=names)
        assert sim.cycle == WARM_CYCLES + 8
        snapshots = _reference_snapshots(circuit, stimuli[lane], {})
        for name in names:
            assert wf.trace(name) == [snap[name] for snap in snapshots], (name, lane)


@pytest.mark.parametrize("seed", SEEDS)
def test_step_outputs_and_state_match(seed):
    """step() outputs and register state of every lane of a sweep match
    a fresh scalar run and the reference."""
    _check_step_outputs_and_state(seed, "interpreted")


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_step_outputs_and_state_match(seed):
    """The same, swept after a long warm-up run, per-lane initial states."""
    _check_step_outputs_and_state(seed, "compiled")


def _check_step_outputs_and_state(seed, tier):
    circuit = _circuit(seed)
    rng = random.Random(seed + 6000)
    stimuli = _lane_stimuli(circuit, rng, cycles=5)
    inits = _lane_inits(circuit, rng, tier)
    sim = _sweep_simulator(circuit, tier)
    for lane in range(LANES):
        sim.reset(inits[lane])
        fresh = Simulator(circuit, initial_state=inits[lane])
        ref = ReferenceSimulator(circuit, inits[lane])
        assert sim.state() == fresh.state() == ref.state(), lane
        for t, frame in enumerate(stimuli[lane]):
            outs = sim.step(frame)
            assert outs == fresh.step(frame) == ref.step(frame)[0], (lane, t)
        assert sim.cycle == 5
        assert sim.state() == fresh.state() == ref.state(), lane


@pytest.mark.parametrize("seed", range(16))
def test_identical_error_behavior(seed):
    """A corrupted lane raises exactly what its fresh scalar run raises.

    One random lane's frame is corrupted (input dropped or overflowed);
    the sweep must raise SimulationError with the same message, and at
    the same step, as a fresh simulator running that lane alone, and the
    lanes after it must still match fresh runs once the simulator is
    reset.
    """
    circuit = _circuit(seed)
    rng = random.Random(seed + 7000)
    widths = _input_widths(circuit)
    stimuli = _lane_stimuli(circuit, rng)
    victim_lane = rng.randrange(LANES)
    victim_cycle = rng.randrange(CYCLES)
    name = rng.choice(sorted(widths))
    frame = dict(stimuli[victim_lane][victim_cycle])
    if rng.random() < 0.5:
        del frame[name]
    else:
        frame[name] = (1 << widths[name]) + rng.randrange(16)
    stimuli[victim_lane][victim_cycle] = frame

    def outcome(sim, frames):
        steps = 0
        try:
            for f in frames:
                sim.step(f)
                steps += 1
            return ("ok", None, steps, sim.state())
        except SimulationError as exc:
            return ("error", str(exc), steps, sim.state())

    sweep = Simulator(circuit)
    for lane in range(LANES):
        sweep.reset({})
        lane_outcome = outcome(sweep, stimuli[lane])
        assert lane_outcome == outcome(Simulator(circuit), stimuli[lane]), lane
        assert (lane_outcome[0] == "error") == (lane == victim_lane), lane


@pytest.mark.parametrize("seed", range(8))
def test_run_raises_like_scalar_run(seed):
    """Waveform-producing run() in a sweep has the same error behavior
    as a fresh scalar run()."""
    circuit = _circuit(seed)
    rng = random.Random(seed + 8000)
    stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=4)
    victim = rng.randrange(8)
    name = rng.choice(sorted(_input_widths(circuit)))
    bad = dict(stimuli[victim][2])
    bad[name] = -1
    stimuli[victim][2] = bad
    sweep = Simulator(circuit)
    for lane in range(victim):
        sweep.reset({})
        sweep.run(stimuli[lane])
    sweep.reset({})
    with pytest.raises(SimulationError) as sweep_info:
        sweep.run(stimuli[victim])
    with pytest.raises(SimulationError) as scalar_info:
        Simulator(circuit).run(stimuli[victim])
    assert str(sweep_info.value) == str(scalar_info.value)
    assert sweep.cycle == 2
