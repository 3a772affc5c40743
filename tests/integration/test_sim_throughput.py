"""Throughput floor of the bit-parallel simulator: 64 lanes vs 1 lane.

Runs the same work as 64 one-lane runs and as one 64-lane run, on the
three workload shapes that batch (a fuzz campaign of instrumented
machines, the Figure-6 kernel sweep on Sodor, counterexample replay),
and requires the geometric-mean speedup of 64 lanes over one lane to be
at least :data:`MIN_GEOMEAN`.  Both runs of a case share one memoized
``batch_program_for`` program, stepped past ``HOT_STEPS`` before the
timing starts, so both run on the compiled tier and the ratio measures
lanes, not compile cost or the interpreter.  Each case also checks that
the two runs agree.
"""

import math
import random
import time

from repro.bench.fuzz import random_machine
from repro.sim import BatchSimulator, batch_program_for
from repro.sim.batch import HOT_STEPS
from repro.taint import TaintSources, cellift_scheme, instrument

LANES = 64
#: One lane ran at 0.71-0.81x of the deleted per-stimulus compiled
#: engine on this case set, so 2.9x here implies the old 2.0x floor
#: over that engine.
MIN_GEOMEAN = 2.9


def _instrumented_machine(seed):
    circuit = random_machine(seed, width=4, max_regs=4, max_ops=10)
    return instrument(circuit, cellift_scheme(),
                      TaintSources(registers={"r0": -1})).circuit


def _lane_stimuli(circuit, rng, cycles):
    widths = {sig.name: sig.width for sig in circuit.inputs}
    return [
        [{name: rng.getrandbits(width) for name, width in widths.items()}
         for _ in range(cycles)]
        for _ in range(LANES)
    ]


def _warm(circuit):
    """Step the circuit's program past ``HOT_STEPS``, onto the compiled tier."""
    frame = {sig.name: 0 for sig in circuit.inputs}
    BatchSimulator(circuit, lanes=1).run([frame] * (HOT_STEPS + 1), record=[])
    assert batch_program_for(circuit).compiled


def _timed(circuit, fn):
    """Time ``fn``, which must run the circuit's compiled program only."""
    program = batch_program_for(circuit)
    assert program.compiled
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    assert batch_program_for(circuit) is program and program.compiled
    return elapsed, result


def _campaign_case(seed, cycles=128):
    """64 random stimuli on a cellift-instrumented fuzzed machine."""
    circuit = _instrumented_machine(seed)
    stimuli = _lane_stimuli(circuit, random.Random(seed * 97 + 13), cycles)
    _warm(circuit)
    one = BatchSimulator(circuit, lanes=1)

    def one_lane():
        states = []
        for lane_stimulus in stimuli:
            one.reset({})
            one.run(lane_stimulus, record=[])
            states.append(one.state(0))
        return states

    def all_lanes():
        sim = BatchSimulator(circuit, lanes=LANES)
        sim.run(stimuli, record=[])
        return sim.state()

    return _timed(circuit, one_lane), _timed(circuit, all_lanes)


def _sweep_case(workload_name):
    """The Figure-6 kernel on Sodor, one data seed per lane."""
    from repro.bench.workloads import WORKLOADS, run_workload_batch
    from repro.cores import CoreConfig, core_registry

    core = core_registry()["Sodor"](CoreConfig.simulation(), False)
    workload = WORKLOADS[workload_name]
    _warm(core.circuit)
    seeds = range(LANES)

    def one_lane():
        return [run_workload_batch(core, workload, [seed])[0][0]
                for seed in seeds]

    def all_lanes():
        return run_workload_batch(core, workload, seeds)[0]

    return _timed(core.circuit, one_lane), _timed(core.circuit, all_lanes)


def _replay_case(seed, length=64):
    """64 BMC-style witnesses certified in one pass."""
    from repro.formal.counterexample import Counterexample, replay_batch

    circuit = _instrumented_machine(seed)
    rng = random.Random(seed * 131 + 7)
    widths = {sig.name: sig.width for sig in circuit.inputs}
    regs = {reg.q.name: reg.q.width for reg in circuit.registers}
    cexs = [
        Counterexample(
            length=length,
            inputs=[{n: rng.getrandbits(w) for n, w in widths.items()}
                    for _ in range(length)],
            initial_state={n: rng.getrandbits(w) for n, w in regs.items()},
        )
        for _ in range(LANES)
    ]
    record = sorted(regs)
    _warm(circuit)

    def traces(waves):
        return [[wave.trace(name) for name in record] for wave in waves]

    def one_lane():
        return traces([replay_batch(circuit, [cex], record=record)[0]
                       for cex in cexs])

    def all_lanes():
        return traces(replay_batch(circuit, cexs, record=record))

    return _timed(circuit, one_lane), _timed(circuit, all_lanes)


def test_batch64_geomean_over_batch1():
    cases = {
        "campaign-cellift-s0": lambda: _campaign_case(0),
        "campaign-cellift-s7": lambda: _campaign_case(7),
        "sodor-median": lambda: _sweep_case("median"),
        "replay-cellift-s2": lambda: _replay_case(2),
    }
    speedups = {}
    for name, run in cases.items():
        (one_wall, one_result), (all_wall, all_result) = run()
        assert all_result == one_result, name
        speedups[name] = one_wall / all_wall
    geomean = math.exp(sum(math.log(s) for s in speedups.values())
                       / len(speedups))
    assert geomean >= MIN_GEOMEAN, (geomean, speedups)
