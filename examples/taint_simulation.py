#!/usr/bin/env python3
"""Simulation-based taint testing (the paper's Section 6.2 use-case).

Runs the five benchmark kernels on an instrumented Rocket-lite core,
with the first input elements tainted, and reports (a) the simulation
slowdown of CellIFT vs a Compass-style lightweight scheme relative to
the uninstrumented core, and (b) where taint ended up — demonstrating
dynamic IFT as a testing tool rather than a formal one.

Run:  python examples/taint_simulation.py        (~1-2 minutes)
"""

import time

from repro.bench.workloads import WORKLOADS
from repro.cores import CoreConfig, build_rocket
from repro.sim import BatchSimulator
from repro.taint import TaintSources, blackbox_scheme, cellift_scheme, instrument


def timed_run(circuit, initial_state, max_cycles=20000):
    sim = BatchSimulator(circuit, lanes=1, initial_states=initial_state)
    started = time.monotonic()
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        sim.advance({})
        if sim.peek("core.halted", 0):
            break
    return time.monotonic() - started, cycles, sim


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
    for wname, workload in WORKLOADS.items():
        import random

        data = workload.make_data(random.Random(0), cfg)
        init = core.initial_state_for(workload.program, data)
        base_time, base_cycles, _ = timed_run(core.circuit, init)
        row = f"{wname:<12} {base_time:7.3f}s "
        for sname, scheme in schemes.items():
            design = instrument(core.circuit, scheme.copy(), sources)
            t, cycles, sim = timed_run(design.circuit, init)
            assert cycles == base_cycles, "instrumentation must not change timing"
            row += f"{t:7.3f}s (x{t / base_time:4.2f})       "
        print(row)

    # Show taint propagation on one workload: which memory words ended tainted?
    design = instrument(core.circuit, cellift_scheme(), sources)
    import random

    workload = WORKLOADS["rsort"]
    data = workload.make_data(random.Random(0), cfg)
    _, _, sim = timed_run(design.circuit, core.initial_state_for(workload.program, data))
    tainted = [i for i in range(cfg.dmem_depth)
               if sim.peek(design.taint_name[core.dmem_words[i]], 0) != 0]
    print(f"\nafter rsort with inputs 0-3 tainted, tainted memory words: {tainted}")
    print("(sorting *branches* on tainted values, so taint reaches the PC and")
    print(" every subsequent store — dynamic IFT surfaces implicit flows too)")


if __name__ == "__main__":
    main()
