#!/usr/bin/env python3
"""Simulation-based taint testing (the paper's Section 6.2 use-case).

Runs the five benchmark kernels on an instrumented Rocket-lite core,
with the first input elements tainted, and reports (a) the simulation
slowdown of CellIFT vs a Compass-style lightweight scheme relative to
the uninstrumented core, and (b) where taint ended up — demonstrating
dynamic IFT as a testing tool rather than a formal one.

Run:  python examples/taint_simulation.py        (a few seconds)
"""

import random
import time

from repro.bench.workloads import WORKLOADS
from repro.cores import CoreConfig, build_rocket
from repro.sim import Simulator
from repro.taint import TaintSources, blackbox_scheme, cellift_scheme, instrument


def timed_run(sim, initial_state, repeats=3, max_cycles=20000):
    """Best wall time of ``repeats`` runs to ``core.halted``, and the
    cycle count; one run of a kernel takes only 10-40 ms."""
    best = float("inf")
    for _ in range(repeats):
        sim.reset(initial_state)
        started = time.monotonic()
        cycles = 0
        for cycles in range(1, max_cycles + 1):
            sim.step({})
            if sim.peek("core.halted"):
                break
        best = min(best, time.monotonic() - started)
    return best, cycles


def main() -> None:
    cfg = CoreConfig.simulation()
    core = build_rocket(cfg, with_shadow=False)
    # Taint the first 4 input words (the paper taints the first 4 input
    # elements of each benchmark).
    sources = TaintSources(registers={core.dmem_words[i]: -1 for i in range(4)})
    schemes = {
        "CellIFT": cellift_scheme(),
        "Compass-style": blackbox_scheme(
            [m for m in core.blackbox_modules if m not in ("dcache",)],
            name="compass-style",
        ),
    }
    print(f"core: {core.circuit!r}\n")
    header = f"{'workload':<12} {'DUV':>8} " + "".join(
        f"{name + ' (slowdown)':>24}" for name in schemes
    )
    print(header)
    designs = {sname: instrument(core.circuit, scheme.copy(), sources)
               for sname, scheme in schemes.items()}
    # One simulator per circuit, reset for every run.
    duv = Simulator(core.circuit)
    sims = {sname: Simulator(design.circuit) for sname, design in designs.items()}
    for wname, workload in WORKLOADS.items():
        data = workload.make_data(random.Random(0), cfg)
        init = core.initial_state_for(workload.program, data)
        base_time, base_cycles = timed_run(duv, init)
        row = f"{wname:<12} {base_time:7.3f}s "
        for sim in sims.values():
            t, cycles = timed_run(sim, init)
            assert cycles == base_cycles, "instrumentation must not change timing"
            row += f"{t:7.3f}s (x{t / base_time:4.2f})       "
        print(row)

    # Show taint propagation on one workload: which memory words ended tainted?
    design = designs["CellIFT"]
    sim = sims["CellIFT"]
    workload = WORKLOADS["rsort"]
    data = workload.make_data(random.Random(0), cfg)
    timed_run(sim, core.initial_state_for(workload.program, data))
    tainted = [i for i in range(cfg.dmem_depth)
               if sim.peek(design.taint_name[core.dmem_words[i]]) != 0]
    print(f"\nafter rsort with inputs 0-3 tainted, tainted memory words: {tainted}")
    print("(sorting *branches* on tainted values, so taint reaches the PC and")
    print(" every subsequent store — dynamic IFT surfaces implicit flows too)")


if __name__ == "__main__":
    main()
