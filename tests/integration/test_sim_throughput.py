"""Throughput floor of a sweep: one simulator for 64 runs vs one per run.

Every caller builds one :class:`~repro.sim.Simulator` per circuit and
resets it per trial, seed or counterexample, because on the short runs
that dominate (prefilter trials, counterexample replays of a few
cycles) translating the circuit costs more than simulating it.  This
times 64 runs swept on one simulator against the same 64 runs each on
a freshly built simulator (a batch of one), on the short-run shapes
that sweep (random trials of a cellift-instrumented fuzzed machine,
counterexample replay), and requires the geometric-mean speedup of the
sweep to be at least :data:`MIN_GEOMEAN`.  The two sides are timed
alternately, :data:`REPEATS` times each, and the fastest time of each
kept.  Each case also checks
that the two sides agree.
"""

import gc
import math
import random
import time

from repro.bench.fuzz import random_machine
from repro.formal.counterexample import Counterexample
from repro.sim import Simulator
from repro.taint import TaintSources, cellift_scheme, instrument

LANES = 64
#: The sweep measured 1.6-1.7x on these cases (Python 3.11, 2-CPU VM).
MIN_GEOMEAN = 1.2
REPEATS = 7


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


def _timed(one_per_run, sweep):
    """Fastest of :data:`REPEATS` alternating runs of each side, with the
    garbage collector paused while a side runs, and each side's result."""
    best = {one_per_run: math.inf, sweep: math.inf}
    results = {}
    for _ in range(REPEATS):
        for fn in best:
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                results[fn] = fn()
                best[fn] = min(best[fn], time.perf_counter() - started)
            finally:
                gc.enable()
    return [(best[fn], results[fn]) for fn in (one_per_run, sweep)]


def _campaign_case(seed, cycles=8):
    """64 short random trials on a cellift-instrumented fuzzed machine."""
    circuit = _instrumented_machine(seed)
    stimuli = _lane_stimuli(circuit, random.Random(seed * 97 + 13), cycles)

    def one_per_run():
        states = []
        for lane_stimulus in stimuli:
            sim = Simulator(circuit)
            sim.run(lane_stimulus, record=[])
            states.append(sim.state())
        return states

    def sweep():
        sim = Simulator(circuit)
        states = []
        for lane_stimulus in stimuli:
            sim.reset({})
            sim.run(lane_stimulus, record=[])
            states.append(sim.state())
        return states

    return _timed(one_per_run, sweep)


def _replay_case(seed, length=6):
    """64 BMC-style witnesses replayed for their register traces."""
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

    def traces(waves):
        return [[wave.trace(name) for name in record] for wave in waves]

    def one_per_run():
        return traces([cex.replay(circuit, record=record) for cex in cexs])

    def sweep():
        sim = Simulator(circuit)
        return traces([cex.replay_on(sim, record=record) for cex in cexs])

    return _timed(one_per_run, sweep)


def test_batch64_geomean_over_batch1():
    cases = {
        "campaign-cellift-s0": lambda: _campaign_case(0),
        "campaign-cellift-s7": lambda: _campaign_case(7),
        "replay-cellift-s2": lambda: _replay_case(2),
        "replay-cellift-s5": lambda: _replay_case(5),
    }
    speedups = {}
    for name, run in cases.items():
        (one_wall, one_result), (sweep_wall, sweep_result) = run()
        assert sweep_result == one_result, name
        speedups[name] = one_wall / sweep_wall
    geomean = math.exp(sum(math.log(s) for s in speedups.values())
                       / len(speedups))
    assert geomean >= MIN_GEOMEAN, (geomean, speedups)
