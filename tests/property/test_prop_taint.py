"""Property-based taint tests: soundness and monotonicity invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Simulator
from repro.taint import (
    Complexity,
    Granularity,
    TaintOption,
    TaintScheme,
    TaintSources,
    blackbox_scheme,
    cellift_scheme,
    instrument,
)

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import random_cell_circuit, rehome_into_modules  # noqa: E402

SCHEME_FACTORIES = {
    "cellift": cellift_scheme,
    "word-naive": lambda: TaintScheme("word-naive"),
    "word-full": lambda: TaintScheme(
        "word-full", default=TaintOption(Granularity.WORD, Complexity.FULL)),
    "bit-partial": lambda: TaintScheme(
        "bit-partial", default=TaintOption(Granularity.BIT, Complexity.PARTIAL)),
    "blackbox": lambda: blackbox_scheme({"m1"}),
}


@given(
    seed=st.integers(min_value=0, max_value=40),
    scheme_name=st.sampled_from(sorted(SCHEME_FACTORIES)),
    s1=st.integers(min_value=0, max_value=15),
    s2=st.integers(min_value=0, max_value=15),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_taint_soundness(seed, scheme_name, s1, s2, data):
    """Whatever the scheme, a signal whose value depends on the secret
    must be tainted (no false negatives) at every cycle."""
    circ = random_cell_circuit(seed)
    scheme = SCHEME_FACTORIES[scheme_name]()
    design = instrument(circ, scheme, TaintSources(registers={"secret": -1}))
    cycles = 4
    stim = [
        {f"in{i}": data.draw(st.integers(min_value=0, max_value=15),
                             label=f"in{i}@{t}") for i in range(3)}
        for t in range(cycles)
    ]
    wf_a = Simulator(circ, initial_state={"secret": s1}).run(stim)
    wf_b = Simulator(circ, initial_state={"secret": s2}).run(stim)
    wf_t = Simulator(design.circuit, initial_state={"secret": s1}).run(stim)
    for name in circ.signals:
        if not design.has_taint(name):
            continue
        taint_name = design.taint_name[name]
        for t in range(cycles):
            if wf_a.value(name, t) != wf_b.value(name, t):
                assert wf_t.value(taint_name, t) != 0, (name, t)


@given(
    seed=st.integers(min_value=0, max_value=25),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_precision_monotone_in_complexity(seed, data):
    """CellIFT (bit/full) taints a subset of what word/naive taints."""
    circ = random_cell_circuit(seed)
    sources = TaintSources(registers={"secret": -1})
    fine = instrument(circ, cellift_scheme(), sources)
    coarse = instrument(circ, TaintScheme("wn"), sources)
    cycles = 4
    stim = [
        {f"in{i}": data.draw(st.integers(min_value=0, max_value=15),
                             label=f"in{i}@{t}") for i in range(3)}
        for t in range(cycles)
    ]
    wf_fine = Simulator(fine.circuit).run(stim)
    wf_coarse = Simulator(coarse.circuit).run(stim)
    for name in circ.signals:
        if not (fine.has_taint(name) and coarse.has_taint(name)):
            continue
        for t in range(cycles):
            fine_t = wf_fine.value(fine.taint_name[name], t)
            coarse_t = wf_coarse.value(coarse.taint_name[name], t)
            assert (fine_t != 0) <= (coarse_t != 0), (name, t)


@given(seed=st.integers(min_value=0, max_value=25))
@settings(max_examples=26, deadline=None)
def test_no_sources_means_no_taint(seed):
    """Without taint sources, nothing is ever tainted."""
    circ = random_cell_circuit(seed)
    design = instrument(circ, cellift_scheme(), TaintSources())
    sim = Simulator(design.circuit)
    for t in range(4):
        sim.step({f"in{i}": (seed * 7 + t * 3 + i) % 16 for i in range(3)})
        for taint_name in design.taint_name.values():
            assert sim.peek(taint_name) == 0


@given(seed=st.integers(min_value=0, max_value=25))
@settings(max_examples=26, deadline=None)
def test_taint_of_secret_register_starts_set(seed):
    circ = random_cell_circuit(seed)
    design = instrument(circ, cellift_scheme(), TaintSources(registers={"secret": -1}))
    sim = Simulator(design.circuit)
    sim.step({f"in{i}": 0 for i in range(3)})
    assert sim.peek(design.taint_name["secret"]) != 0


def _random_scheme(circuit, rng):
    """Blackboxed modules, BIT/WORD registers and ladder options on cells."""
    from repro.taint.space import refinement_ladder

    scheme = TaintScheme("random", default=rng.choice(refinement_ladder()))
    for module in sorted(circuit.module_paths()):
        if rng.random() < 0.4:
            scheme.blackboxes.add(module)
    for reg in circuit.registers:
        scheme.refine_register(reg.q.name,
                               rng.choice((Granularity.BIT, Granularity.WORD)))
    for cell in circuit.cells:
        ladder = refinement_ladder(scheme.option_for_cell(cell.out.name, cell.module))
        if ladder and rng.random() < 0.6:
            scheme.refine_cell(cell.out.name, rng.choice(ladder))
    return scheme


@given(seed=st.integers(min_value=0, max_value=400), data=st.data())
@settings(max_examples=60, deadline=None)
def test_instrumentation_never_drives_the_data_path(seed, data):
    """Taint logic sits beside the design: every original cell and
    register survives unchanged, nothing else drives an original signal,
    and the sink/clean/gated monitors add only ``_monitor`` cells."""
    import random

    from repro.bench.fuzz import random_machine

    rng = random.Random(seed)
    circ = rehome_into_modules(random_machine(seed, max_regs=3, max_ops=8), rng)
    scheme = _random_scheme(circ, rng)
    secret = rng.choice(circ.registers).q.name
    design = instrument(circ, scheme, TaintSources(registers={secret: -1}))
    inst = design.circuit

    assert inst.cells[:len(circ.cells)] == circ.cells
    for cell in circ.cells:
        assert inst.producer(cell.out) is cell
        assert inst.producer(cell.out).module == cell.module
    for reg in circ.registers:
        assert inst.register_of(reg.q) is reg
    for name, sig in circ.signals.items():
        assert inst.signals[name] == sig and inst.signals[name].module == sig.module
    assert inst.inputs == circ.inputs
    originals = {id(cell) for cell in circ.cells}
    for cell in inst.cells:
        if id(cell) not in originals:
            assert cell.out.name not in circ.signals, cell

    tainted = sorted(n for n in circ.signals if design.has_taint(n))
    sinks = data.draw(st.lists(st.sampled_from(tainted), min_size=1,
                               max_size=3), label="sinks")
    clean = data.draw(st.lists(st.sampled_from(tainted), max_size=2),
                      label="clean")
    gated = data.draw(st.lists(st.tuples(st.sampled_from(sorted(circ.signals)),
                                         st.sampled_from(tainted)),
                               max_size=2), label="gated")
    before = len(inst.cells)
    registers = list(inst.registers)
    design.add_taint_monitor(sinks, out_name="__bad")
    if clean:
        design.add_zero_taint_monitor(clean, out_name="__clean")
    if gated:
        design.add_gated_clean_monitor(gated, out_name="__gated")
    inst.validate()
    assert inst.registers == registers
    added = inst.cells[before:]
    assert added and all(cell.module == "_monitor" for cell in added)
    assert all(cell.out.name not in circ.signals for cell in added)
