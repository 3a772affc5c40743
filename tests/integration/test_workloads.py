"""Workload integration: every kernel runs self-checked on every core,
and taint simulation over the kernels behaves sensibly."""

import random

import pytest

from repro.bench.workloads import WORKLOADS, run_workload_batch
from repro.cores import CoreConfig, core_registry
from repro.sim import BatchSimulator
from repro.taint import TaintSources, cellift_scheme, instrument

CFG = CoreConfig.simulation()
_REGISTRY = core_registry()
_CORES = {}


def _core(name):
    if name not in _CORES:
        _CORES[name] = _REGISTRY[name](CFG, False)
    return _CORES[name]


#: Halt cycle of each (core, workload) at data seed 3, as recorded by the
#: scalar engine; a one-lane batch run must reproduce every count.
SEED3_CYCLES = {
    ("Sodor", "matrix_mul"): 168, ("Sodor", "median"): 128,
    ("Sodor", "qsort"): 176, ("Sodor", "rsa"): 84, ("Sodor", "rsort"): 296,
    ("Rocket", "matrix_mul"): 188, ("Rocket", "median"): 148,
    ("Rocket", "qsort"): 200, ("Rocket", "rsa"): 97, ("Rocket", "rsort"): 318,
    ("BOOM", "matrix_mul"): 220, ("BOOM", "median"): 224,
    ("BOOM", "qsort"): 320, ("BOOM", "rsa"): 125, ("BOOM", "rsort"): 548,
    ("BOOM-S", "matrix_mul"): 220, ("BOOM-S", "median"): 224,
    ("BOOM-S", "qsort"): 320, ("BOOM-S", "rsa"): 125, ("BOOM-S", "rsort"): 548,
    ("ProSpeCT-S", "matrix_mul"): 220, ("ProSpeCT-S", "median"): 224,
    ("ProSpeCT-S", "qsort"): 320, ("ProSpeCT-S", "rsa"): 125,
    ("ProSpeCT-S", "rsort"): 548,
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("core_name", ["Sodor", "Rocket", "BOOM", "BOOM-S", "ProSpeCT-S"])
def test_workload_runs_self_checked(core_name, workload_name):
    (cycles,), _sim = run_workload_batch(
        _core(core_name), WORKLOADS[workload_name], [3],
    )
    assert cycles == SEED3_CYCLES[core_name, workload_name]


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_workloads_deterministic(workload_name):
    c1, _ = run_workload_batch(_core("Rocket"), WORKLOADS[workload_name], [5])
    c2, _ = run_workload_batch(_core("Rocket"), WORKLOADS[workload_name], [5])
    assert c1 == c2


def test_instrumentation_does_not_change_cycle_count():
    core = _core("Sodor")
    workload = WORKLOADS["median"]
    data = workload.make_data(random.Random(1), CFG)
    init = core.initial_state_for(workload.program, data)
    design = instrument(core.circuit, cellift_scheme(),
                        TaintSources(registers={core.dmem_words[0]: -1}))

    def cycles_of(circuit):
        sim = BatchSimulator(circuit, lanes=1, initial_states=init)
        for n in range(1, 20000):
            sim.advance({})
            if sim.peek("core.halted", 0):
                return n
        raise AssertionError("no halt")

    assert cycles_of(core.circuit) == cycles_of(design.circuit)


def test_taint_follows_sorted_data():
    """Taint the first input of rsort; after sorting, the tainted value
    moved to its sorted position — dynamic IFT tracks it."""
    core = _core("Rocket")
    workload = WORKLOADS["rsort"]
    data = {i: v for i, v in enumerate([9, 3, 7, 1, 8, 2, 6, 4])}
    sources = TaintSources(registers={core.dmem_words[0]: -1})  # value 9
    design = instrument(core.circuit, cellift_scheme(), sources)
    sim = BatchSimulator(design.circuit, lanes=1,
                         initial_states=core.initial_state_for(workload.program, data))
    for _ in range(20000):
        sim.advance({})
        if sim.peek("core.halted", 0):
            break
    tainted = {i for i in range(CFG.dmem_depth)
               if sim.peek(design.taint_name[core.dmem_words[i]], 0) != 0}
    # 9 sorts to index 7; its original slot 0 received an untainted value,
    # but slots the tainted value transited may be conservatively tainted.
    assert 7 in tainted
    values = [sim.peek(core.dmem_words[i], 0) for i in range(8)]
    assert values[:8] == sorted([9, 3, 7, 1, 8, 2, 6, 4])
