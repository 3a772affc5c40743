"""Differential battery: BatchSimulator vs the scalar interpreter.

The bit-parallel engine must be *indistinguishable*, lane for lane,
from :class:`~repro.sim.Simulator` — 50+ fuzzed sequential machines, 64
lanes each, checked for bit-identical signal values, waveforms, and
error behavior (out-of-range or missing inputs raise
``SimulationError`` with the interpreter's exact message).  The
lane-for-lane cases run on both tiers of the plane program: interpreted
(below :data:`~repro.sim.batch.HOT_STEPS` steps), compiled (past it),
and across the switch.
"""

import random

import pytest

from repro.bench.fuzz import random_machine
from repro.sim import BatchSimulator, Simulator, batch_program_for
from repro.sim.batch import HOT_STEPS
from repro.sim.simulator import SimulationError

LANES = 64
CYCLES = 8
SEEDS = range(52)  # 52 fuzzed circuits


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


def _on_tier(circuit, tier):
    """Step the circuit's program past ``HOT_STEPS`` for the compiled tier."""
    if tier == "compiled":
        frame = {name: 0 for name in _input_widths(circuit)}
        BatchSimulator(circuit, lanes=1).run([frame] * (HOT_STEPS + 1),
                                             record=[])
    program = batch_program_for(circuit)
    assert program.compiled == (tier == "compiled")
    return circuit


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_match_both_scalar_engines(seed):
    """64 lanes in one pass == 64 scalar runs, through both lane views
    (``lane_trace`` and the sliced ``lane`` waveform)."""
    _check_lanes_match(seed, "interpreted")


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_lanes_match_both_scalar_engines(seed):
    """The same, on a program stepped past ``HOT_STEPS``."""
    _check_lanes_match(seed, "compiled")


def _check_lanes_match(seed, tier):
    circuit = _on_tier(_circuit(seed), tier)
    rng = random.Random(seed + 5000)
    stimuli = _lane_stimuli(circuit, rng)
    names = list(circuit.signals)
    batch = BatchSimulator(circuit, lanes=LANES).run(stimuli, record=names)
    ref = Simulator(circuit)
    for lane in range(LANES):
        ref.reset({})
        ref_wf = ref.run(stimuli[lane], record=names)
        lane_wf = batch.lane(lane)
        for name in names:
            trace = ref_wf.trace(name)
            assert trace == batch.lane_trace(name, lane), (name, lane)
            assert trace == lane_wf.trace(name), (name, lane)


@pytest.mark.parametrize("seed", range(8))
def test_lanes_match_across_tier_up(seed):
    """A run that crosses ``HOT_STEPS`` matches scalar runs lane for lane."""
    circuit = _circuit(seed)
    rng = random.Random(seed + 9000)
    stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=HOT_STEPS + 8)
    names = list(circuit.signals)
    batch = BatchSimulator(circuit, lanes=8).run(stimuli, record=names)
    assert batch_program_for(circuit).compiled
    ref = Simulator(circuit)
    for lane in range(8):
        ref.reset({})
        ref_wf = ref.run(stimuli[lane], record=names)
        for name in names:
            assert ref_wf.trace(name) == batch.lane_trace(name, lane), (name, lane)


@pytest.mark.parametrize("seed", SEEDS)
def test_step_outputs_and_state_match(seed):
    """step() outputs and register state match scalar runs per lane."""
    _check_step_outputs_and_state(seed, "interpreted")


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_step_outputs_and_state_match(seed):
    """The same, on a program stepped past ``HOT_STEPS``."""
    _check_step_outputs_and_state(seed, "compiled")


def _check_step_outputs_and_state(seed, tier):
    circuit = _on_tier(_circuit(seed), tier)
    rng = random.Random(seed + 6000)
    stimuli = _lane_stimuli(circuit, rng, cycles=5)
    bsim = BatchSimulator(circuit, lanes=LANES)
    ref = Simulator(circuit)
    scalar_outs = []
    scalar_states = []
    for lane in range(LANES):
        ref.reset({})
        outs = [ref.step(frame) for frame in stimuli[lane]]
        scalar_outs.append(outs)
        scalar_states.append(ref.state())
    for t in range(5):
        batch_outs = bsim.step([stimuli[lane][t] for lane in range(LANES)])
        for lane in range(LANES):
            assert batch_outs[lane] == scalar_outs[lane][t], (lane, t)
    assert bsim.state() == scalar_states


@pytest.mark.parametrize("seed", range(16))
def test_identical_error_behavior(seed):
    """A corrupted lane raises exactly what its scalar run raises.

    One random lane's frame is corrupted (input dropped or overflowed,
    per the PR 3 strictness fix); the batch must raise SimulationError
    with the same message, and at the same step, as the interpreter
    running that lane alone.
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

    sim = Simulator(circuit)
    steps = 0
    try:
        for f in stimuli[victim_lane]:
            sim.step(f)
            steps += 1
        scalar_outcome = ("ok", None, steps)
    except SimulationError as exc:
        scalar_outcome = ("error", str(exc), steps)

    bsim = BatchSimulator(circuit, lanes=LANES)
    steps = 0
    try:
        for t in range(CYCLES):
            bsim.step([stimuli[lane][t] for lane in range(LANES)])
            steps += 1
        batch_outcome = ("ok", None, steps)
    except SimulationError as exc:
        batch_outcome = ("error", str(exc), steps)

    assert batch_outcome == scalar_outcome
    assert batch_outcome[0] == "error"


@pytest.mark.parametrize("seed", range(8))
def test_run_raises_like_scalar_run(seed):
    """Waveform-producing run() has the same error behavior as scalar run()."""
    circuit = _circuit(seed)
    rng = random.Random(seed + 8000)
    stimuli = _lane_stimuli(circuit, rng, lanes=8, cycles=4)
    victim = rng.randrange(8)
    name = rng.choice(sorted(_input_widths(circuit)))
    bad = dict(stimuli[victim][2])
    bad[name] = -1
    stimuli[victim][2] = bad
    with pytest.raises(SimulationError) as batch_info:
        BatchSimulator(circuit, lanes=8).run(stimuli)
    with pytest.raises(SimulationError) as scalar_info:
        Simulator(circuit).run(stimuli[victim])
    assert str(batch_info.value) == str(scalar_info.value)
