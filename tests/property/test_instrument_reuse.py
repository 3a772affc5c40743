"""Re-instrumentation by reuse equals instrumentation from scratch.

``instrument(circuit, scheme, sources, previous=design)`` copies the
taint logic of every source cell whose region, applied option and input
taint signals are unchanged from ``design``.  At every step of a chain
of refinements the result must be the design a fresh ``instrument`` of
a ``clone()`` of the circuit builds: the same content fingerprint, the
same cells in the same order, the same topological order, the same
taint maps and the same warnings.

The chains are random on ``random_machine`` circuits (cell option
changes at both granularities, registers refined to bit granularity,
blackboxes opened, a module handed to custom taint logic, stale
overrides, monitors attached to the design a step starts from), and the
real refinement-by-testing ladders of tiny Rocket and tiny Sodor.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.formal.cache import circuit_fingerprint
from repro.taint import TaintScheme, TaintSources, instrument
from repro.taint.custom import PassthroughTaint
from repro.taint.space import (
    REFINEMENT_LADDER, Complexity, Granularity, TaintOption, UnitLevel)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import rehome_into_modules  # noqa: E402

TINY = dict(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)


def assert_same_design(reused, fresh):
    """``reused`` is, field for field, the design ``fresh`` is."""
    assert (circuit_fingerprint(reused.circuit)
            == circuit_fingerprint(fresh.circuit))
    assert reused.circuit.cells == fresh.circuit.cells
    assert ([c.out.module for c in reused.circuit.cells]
            == [c.out.module for c in fresh.circuit.cells])
    assert ([c.out.name for c in reused.circuit.topo_cells()]
            == [c.out.name for c in fresh.circuit.topo_cells()])
    assert list(reused.circuit.signals.values()) == list(fresh.circuit.signals.values())
    assert reused.circuit.registers == fresh.circuit.registers
    assert list(reused.taint_name.items()) == list(fresh.taint_name.items())
    assert reused.module_taint == fresh.module_taint
    assert list(reused.applied_options.items()) == list(fresh.applied_options.items())
    assert list(reused.region_of_cell.items()) == list(fresh.region_of_cell.items())
    assert reused.warnings.diagnostics == fresh.warnings.diagnostics


def _passthrough(circuit, module):
    """Custom taint for ``module``: a signal it produces depends on the
    signals entering it that reach it combinationally."""
    deps = {}
    for cell in circuit.cells:
        if cell.module != module:
            continue
        entering, stack, seen = set(), [cell.out], set()
        while stack:
            sig = stack.pop()
            if sig.name in seen:
                continue
            seen.add(sig.name)
            producer = circuit.producer(sig)
            if producer is not None and producer.module == module:
                stack.extend(producer.ins)
            elif not (circuit.is_state(sig) and sig.module == module):
                entering.add(sig.name)
        deps[cell.out.name] = sorted(entering)
    for reg in circuit.registers:
        if reg.q.module == module:
            deps[reg.q.name] = []
    return PassthroughTaint(deps)


def _refine(circuit, scheme, rng):
    """One random refinement step: the new scheme."""
    scheme = scheme.copy()
    modules = sorted(circuit.module_paths())
    step = rng.choice(("cell", "cell", "register", "open", "custom", "stale"))
    if step == "register":
        words = [r.q.name for r in circuit.registers
                 if scheme.granularity_for_register(r.q.name, r.q.module)
                 is Granularity.WORD]
        if words:
            scheme.refine_register(rng.choice(words), Granularity.BIT)
            return scheme
    if step == "open" and scheme.blackboxes:
        scheme.open_blackbox(rng.choice(sorted(scheme.blackboxes)))
        return scheme
    if step == "custom":
        plain = [m for m in modules if m not in scheme.custom_modules]
        if plain:
            module = rng.choice(plain)
            scheme.custom_modules[module] = _passthrough(circuit, module)
            return scheme
    if step == "stale":
        scheme.refine_cell("no.such.cell", rng.choice(REFINEMENT_LADDER))
        return scheme
    cell = rng.choice(circuit.cells)
    scheme.refine_cell(cell.out.name, rng.choice(REFINEMENT_LADDER))
    return scheme


@given(seed=st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_random_refinement_chains_match_fresh_instrumentation(seed):
    from repro.bench.fuzz import random_machine

    rng = random.Random(seed)
    circuit = rehome_into_modules(random_machine(seed, max_regs=3, max_ops=8), rng)
    scheme = TaintScheme("chain", default=rng.choice(REFINEMENT_LADDER[:2]))
    for module in sorted(circuit.module_paths()):
        if rng.random() < 0.5:
            scheme.blackboxes.add(module)
    secret = rng.choice(circuit.registers).q.name
    sources = TaintSources(registers={secret: -1}, inputs={"x": rng.choice((0, 1, -1))})
    design = instrument(circuit, scheme, sources)
    for _ in range(8):
        scheme = _refine(circuit, scheme, rng)
        if rng.random() < 0.5:
            # The CEGAR loop attaches its monitors to the design a
            # refinement starts from.
            tainted = sorted(n for n in circuit.signals if design.has_taint(n))
            design.add_taint_monitor(tainted[:2], out_name=f"__bad{rng.random()}")
        reused = instrument(circuit, scheme, sources, previous=design)
        assert reused.fragments is not None
        fresh = instrument(circuit.clone(), scheme, sources)
        assert_same_design(reused, fresh)
        design = reused


def test_a_changed_circuit_sources_or_unit_level_runs_in_full():
    from repro.bench.fuzz import random_machine

    circuit = random_machine(3, max_regs=3, max_ops=8)
    sources = TaintSources(registers={circuit.registers[0].q.name: -1})
    scheme = TaintScheme("plain")
    design = instrument(circuit, scheme, sources)
    other = TaintSources(inputs={"x": -1})
    assert_same_design(instrument(circuit, scheme, other, previous=design),
                       instrument(circuit, scheme, other))
    clone = circuit.clone()
    assert_same_design(instrument(clone, scheme, sources, previous=design),
                       instrument(circuit, scheme, sources))
    gates = scheme.copy()
    gates.unit_level = UnitLevel.GATE
    gate_design = instrument(circuit, gates, sources, previous=design)
    assert_same_design(gate_design, instrument(circuit, gates, sources))
    assert_same_design(instrument(circuit, scheme, sources, previous=gate_design),
                       instrument(circuit, scheme, sources))


def _run_checked_ladder(task, config):
    """Run ``task``, comparing every reused instrumentation with a fresh
    one of the same scheme as it is made; returns the ``(scheme,
    previous)`` of each comparison."""
    from repro.cegar import loop, refine

    real = refine.instrument
    steps = []

    def checked(circuit, scheme, sources=None, previous=None):
        design = real(circuit, scheme, sources, previous=previous)
        assert previous is not None
        assert_same_design(design, real(circuit.clone(), scheme, sources))
        steps.append((scheme, previous))
        return design

    refine.instrument = checked
    try:
        loop.run_compass(task, config)
    finally:
        refine.instrument = real
    return steps


def _testing_config(seed):
    from repro.cegar import loop

    return loop.CegarConfig(mc_enabled=False, exact_validation=False,
                            max_refinements=400, seed=seed, sim_trials=20,
                            sim_depth=16, max_counterexamples=200)


@pytest.fixture(scope="module")
def rocket_ladder():
    """Tiny Rocket's refinement-by-testing ladder (perfbench's seed)."""
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_rocket

    task = make_contract_task(build_rocket(CoreConfig(**TINY)))
    return task, _run_checked_ladder(task, _testing_config(4))


def test_rocket_ladder_steps_match_fresh_instrumentation(rocket_ladder):
    _task, steps = rocket_ladder
    assert len(steps) >= 14


def test_sodor_ladder_steps_match_fresh_instrumentation():
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_sodor

    task = make_contract_task(build_sodor(CoreConfig(**TINY)))
    assert len(_run_checked_ladder(task, _testing_config(0))) >= 20


def test_a_cell_refinement_re_emits_only_what_it_changes(rocket_ladder, monkeypatch):
    """Rocket's first word/naive -> word/partial step: only the refined
    cell, and cells whose input taint is emitted anew, go through
    ``propagate``.  A region's output taint is emitted inside the
    fragment of its first consumer, so those consumers count as such."""
    import importlib

    instrument_module = importlib.import_module("repro.taint.instrument")
    task, steps = rocket_ladder
    partial = TaintOption(Granularity.WORD, Complexity.PARTIAL)
    for scheme, previous in steps:
        changed = {name for name, option in scheme.cell_options.items()
                   if previous.scheme.cell_options.get(name) != option}
        if len(changed) == 1 and scheme.cell_options[next(iter(changed))] == partial:
            break
    else:
        raise AssertionError("no word/naive -> word/partial step")
    (refined,) = changed
    assert previous.applied_options[refined] == TaintOption(Granularity.WORD,
                                                            Complexity.NAIVE)
    emitted = []
    real = instrument_module.propagate

    def counting(cell, *args):
        emitted.append(cell.out.name)
        return real(cell, *args)

    monkeypatch.setattr(instrument_module, "propagate", counting)
    reused = instrument(task.circuit, scheme, task.sources, previous=previous)
    re_emitted = list(emitted)
    emitted.clear()
    fresh = instrument(task.circuit, scheme, task.sources)
    assert len(emitted) > 100 * len(re_emitted)
    assert refined in re_emitted
    circuit = task.circuit
    for name in re_emitted:
        if name == refined:
            continue
        producers = [circuit.producer(sig) for sig in circuit.producer(circuit.signal(name)).ins]
        assert any(p is not None and reused.region_of_cell[p.out.name] is not None
                   for p in producers), name
    assert len(reused.circuit.cells) == len(fresh.circuit.cells)
