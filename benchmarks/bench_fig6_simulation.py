"""Figure 6: simulation time of instrumented designs, normalized to the
uninstrumented DUV and averaged over the five benchmark kernels (with
min/max variation), for CellIFT vs the Compass-refined scheme.

Paper shape: CellIFT ~4.5x (=351 % overhead), Compass ~3x (=205 %),
i.e. the Compass slowdown must be strictly smaller than CellIFT's on
every core.
"""

import random
import time

import pytest

from repro.bench.workloads import WORKLOADS
from repro.sim import Simulator
from repro.taint import TaintSources, cellift_scheme, instrument

from _common import emit, refined_scheme_by_testing, simulation_core

CORES = ("Sodor", "Rocket", "BOOM-S")


def _run(sim, initial_state, max_cycles=20000):
    # The timed loop is the simulation, not the translation of the
    # circuit into its op program (paid once, when ``sim`` was built).
    sim.reset(initial_state)
    started = time.monotonic()
    for _ in range(max_cycles):
        sim.step({})
        if sim.peek("core.halted"):
            break
    return time.monotonic() - started


def _figure6_rows(core_name):
    core = simulation_core(core_name, with_shadow=False)
    sources = TaintSources(registers={core.dmem_words[i]: -1 for i in range(4)})
    compass_scheme, _ = refined_scheme_by_testing(core_name, simulation=True)
    designs = {
        "CellIFT": instrument(core.circuit, cellift_scheme(), sources),
        "Compass": instrument(core.circuit, compass_scheme.copy(), sources),
    }
    duv = Simulator(core.circuit)
    sims = {label: Simulator(design.circuit) for label, design in designs.items()}
    ratios = {label: [] for label in designs}
    for workload in WORKLOADS.values():
        data = workload.make_data(random.Random(0), core.config)
        init = core.initial_state_for(workload.program, data)
        base = min(_run(duv, init) for _ in range(2))
        for label, sim in sims.items():
            inst = min(_run(sim, init) for _ in range(2))
            ratios[label].append(inst / base)
    return ratios


@pytest.mark.parametrize("core_name", CORES)
def test_fig6_simulation_per_core(benchmark, core_name):
    ratios = benchmark.pedantic(lambda: _figure6_rows(core_name),
                                iterations=1, rounds=1)
    mean = {k: sum(v) / len(v) for k, v in ratios.items()}
    assert mean["Compass"] < mean["CellIFT"], mean
    assert mean["Compass"] >= 1.0


def test_fig6_render_table(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = [
        "Figure 6: simulation time normalized to the DUV "
        "(mean over 5 kernels, [min..max])",
        f"{'core':<10} {'scheme':<9} {'mean':>7} {'range':>18}",
    ]
    for core_name in CORES:
        ratios = _figure6_rows(core_name)
        for label, values in ratios.items():
            mean = sum(values) / len(values)
            lines.append(
                f"{core_name:<10} {label:<9} {mean:6.2f}x "
                f"[{min(values):5.2f}x .. {max(values):5.2f}x]"
            )
    lines.append("")
    lines.append("paper: CellIFT 4.51x (=+351%), Compass 3.05x (=+205%) on average")
    emit("fig6_simulation", "\n".join(lines))
