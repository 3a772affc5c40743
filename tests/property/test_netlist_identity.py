"""Identity of the SAT netlist pipeline against a recorded golden file.

The gate netlist that :func:`repro.formal.bmc._as_lowered` hands the
encoder fixes SAT variable numbering, and with it counterexample
models, CEGAR trajectories and solver effort.  The SAT path lowers
hashed (``lower_to_gates(..., hashed=True)``) and cuts the property's
cone; the raw lowering, ``simplify``, ``cone_of_influence`` and
``strash`` stay as its reference (``test_hashed_lowering.py``).  A
rewrite of any of them must therefore return exactly the same
:class:`~repro.hdl.lowering.LoweredCircuit`:
the content fingerprint, the order of inputs, outputs, registers and
signals, the ``bits`` map (names, kinds, widths, modules), and
``pruned_resets``.  This test digests all of that for a fixed corpus
and compares it with ``tests/data/netlist_identity.json``.

The corpus: ``random_machine`` seeds 0-99 at three sizes (property
pipeline, plain pipeline, raw lowering, word-level ``simplify`` and
``strash``), ``random_cell_circuit`` seeds 0-29 (word-level passes, raw
lowering and the reference gate pipeline), three instrumented verify-stream mux-chain tasks, tiny
Sodor with its initial scheme and property, the ProSpeCT bug1 x
Spectre directed netlist, its exact-check product and the
``ExactValidator`` product.

The encoder reads the last netlist without building a ``Circuit``;
``test_flat_frame_program_and_fingerprint`` checks, on every flat
lowering of the corpus, that this gives the frame program and the
content fingerprint the built ``Circuit`` gives, and
``test_interpreted_frames_match_reference_encoder`` and
``test_pdr_frame_matches_reference_encoder`` that interpreting the
frame program adds what ``FrameEncoder`` adds, for BMC and k-induction
unrollings and for PDR's transition frame.

To re-record the golden file after a deliberate netlist change::

    PYTHONPATH=src python tests/property/test_netlist_identity.py --record
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from typing import Callable, Dict, Iterator, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(ROOT, "tests", "data", "netlist_identity.json")

sys.path.insert(0, os.path.dirname(HERE))
from conftest import ReferenceUnroller, random_cell_circuit  # noqa: E402

#: (width, max_regs, max_ops) of the three random-machine sizes.
MACHINE_SIZES = {"small": (2, 2, 3), "default": (3, 3, 6), "large": (4, 4, 10)}
#: (index, stages, width, leaky) of the verify-stream tasks.
STREAM_TASKS = ((0, 3, 4, False), (1, 5, 6, True), (2, 7, 8, False))
#: The sink the bug1 x Spectre check hands the exact false-taint check.
PROSPECT_SINK = "obs_dmem_laddr"
TINY = dict(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)


def _signal_doc(sig):
    return [sig.name, sig.width, sig.kind.value, sig.module]


def netlist_digest(lowered) -> str:
    """Digest of everything the encoder and counterexample reader see."""
    from repro.formal.cache import circuit_fingerprint
    from repro.hdl.lowering import LoweredCircuit

    if isinstance(lowered, LoweredCircuit):
        circuit = lowered.circuit
        bits = [[name, [_signal_doc(s) for s in sigs]]
                for name, sigs in lowered.bits.items()]
        pruned = sorted(lowered.pruned_resets.items())
    else:
        circuit, bits, pruned = lowered, None, None
    doc = {
        "fingerprint": circuit_fingerprint(circuit),
        "name": circuit.name,
        "signals": [_signal_doc(s) for s in circuit.signals.values()],
        "inputs": [s.name for s in circuit.inputs],
        "outputs": [s.name for s in circuit.outputs],
        "registers": [[r.q.name, r.d.name, r.reset_value] for r in circuit.registers],
        # What each cell references, not only by name: the encoder and
        # the simulators read widths and kinds off these objects.
        "cell_refs": [[_signal_doc(c.out)] + [_signal_doc(s) for s in c.ins]
                      for c in circuit.cells],
        "topo": [c.out.name for c in circuit.topo_cells()],
        "bits": bits,
        "pruned_resets": pruned,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _fresh_lowered(circuit, prop=None):
    from repro.formal import bmc

    bmc._LOWERED_CACHE.clear()
    return bmc._as_lowered(circuit, prop)


def _bad_property(name="bad"):
    from repro.formal.properties import SafetyProperty

    return SafetyProperty(name="identity", bad=name)


def _load_perfbench_workloads():
    """perfbench's workload module, which builds the verify-stream tasks."""
    name = "_identity_perfbench_workloads"
    if name not in sys.modules:
        path = os.path.join(ROOT, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module here
        spec.loader.exec_module(module)
    return sys.modules[name]


# -- the corpus ---------------------------------------------------------------

def _machine(size: str, seed: int):
    from repro.bench.fuzz import random_machine

    width, regs, ops = MACHINE_SIZES[size]
    return random_machine(seed, width=width, max_regs=regs, max_ops=ops)


def _machine_cases(size: str) -> Iterator[Tuple[str, Callable[[], str]]]:
    from repro.hdl.lowering import lower_to_gates
    from repro.hdl.optimize import simplify, strash

    for seed in range(100):
        def case(seed=seed):
            circuit = _machine(size, seed)
            parts = [
                netlist_digest(_fresh_lowered(circuit, _bad_property())),
                netlist_digest(_fresh_lowered(circuit)),
                netlist_digest(lower_to_gates(circuit)),
                netlist_digest(simplify(circuit)),
                netlist_digest(strash(circuit)),
            ]
            return "/".join(parts)
        yield f"machine-{size}-{seed}", case


def _cell_circuit_cases() -> Iterator[Tuple[str, Callable[[], str]]]:
    from repro.hdl.lowering import lower_to_gates
    from repro.hdl.optimize import cone_of_influence, simplify, strash

    for seed in range(30):
        def case(seed=seed):
            circuit = random_cell_circuit(seed)
            gates = lower_to_gates(circuit)
            roots = [s.name for s in gates.bits["out"]]
            parts = [
                netlist_digest(simplify(circuit)),
                netlist_digest(strash(circuit)),
                netlist_digest(cone_of_influence(circuit, ["out"])),
                netlist_digest(gates),
                netlist_digest(strash(cone_of_influence(simplify(gates.circuit), roots))),
            ]
            return "/".join(parts)
        yield f"cells-{seed}", case


def _stream_source(index, stages, width, leaky):
    from repro.cegar import loop

    task = _load_perfbench_workloads().mux_chain_task(index, stages, width, leaky)
    design, prop = loop.instrument_task(task, task.initial_scheme())
    return design.circuit, prop


def _sodor_source():
    from repro.cegar import loop
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_sodor

    task = make_contract_task(build_sodor(CoreConfig(**TINY)))
    design, prop = loop.instrument_task(task, task.initial_scheme())
    return design.circuit, prop


def _exact_validator():
    from repro.cegar.falsetaint import ExactValidator
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_sodor

    task = make_contract_task(build_sodor(CoreConfig(**TINY)))
    return ExactValidator(task.circuit, task.secret_registers(), task.sinks,
                          init_assumption_outputs=task.init_assumption_outputs)


def _prospect_core():
    from repro.cores import CoreConfig, build_prospect

    return build_prospect(CoreConfig.formal(), bug1=True, bug2=False)


def _prospect_directed_source():
    from repro.cegar import loop
    from repro.contracts import make_contract_task
    from repro.formal.properties import SafetyProperty
    from repro.taint import cellift_scheme

    core = _prospect_core()
    task = make_contract_task(core)
    scheme = cellift_scheme()
    for module in core.precise_modules:
        scheme.module_defaults[module] = scheme.default
    design, prop = loop.instrument_task(task, scheme)
    free = frozenset(set(task.symbolic_registers) - set(core.imem_words))
    directed_prop = SafetyProperty(prop.name, prop.bad, prop.assumptions,
                                   prop.init_assumptions, free)
    return design.circuit, directed_prop


def _prospect_product_source():
    from repro.contracts import make_contract_task
    from repro.formal.product import self_composition
    from repro.formal.properties import SafetyProperty

    core = _prospect_core()
    task = make_contract_task(core)
    secrets = set(task.secret_registers())
    product = self_composition(core.circuit,
                               shared_inputs={s.name for s in core.circuit.inputs})
    bad = product.differs(PROSPECT_SINK)
    symbolic = frozenset(product.c2(reg.q.name) for reg in core.circuit.registers
                         if reg.q.name in secrets)
    prop = SafetyProperty(
        name=f"false-taint:{PROSPECT_SINK}", bad=bad,
        init_assumptions=tuple(product.c2(n) for n in core.init_assumption_outputs),
        symbolic_registers=symbolic,
    )
    return product.circuit, prop


def _with_lowering(source):
    """``source`` plus the SAT pipeline's lowering of it."""
    def build():
        circuit, prop = source()
        return _fresh_lowered(circuit, prop), circuit, prop
    return build


def _exact_validator_case():
    validator = _exact_validator()
    return validator.lowered, validator.product.circuit, None


def flat_cases() -> Dict[str, Callable[[], tuple]]:
    """Every flat lowering of the corpus, with what it was lowered from.

    A case builds ``(lowered, circuit, prop)``: the SAT pipeline's
    lowering of ``circuit`` for ``prop`` (``_as_lowered``), or, for the
    ``ExactValidator`` product, its lowering with no property."""
    cases: Dict[str, Callable[[], tuple]] = {}
    for size in MACHINE_SIZES:
        for seed in range(100):
            cases[f"machine-{size}-{seed}"] = _with_lowering(
                lambda size=size, seed=seed: (_machine(size, seed), _bad_property()))
    for task in STREAM_TASKS:
        cases[f"stream-{task[0]}"] = _with_lowering(lambda task=task: _stream_source(*task))
    cases["sodor-initial"] = _with_lowering(_sodor_source)
    cases["sodor-exact-validator"] = _exact_validator_case
    cases["prospect-bug1-spectre"] = _with_lowering(_prospect_directed_source)
    cases["prospect-exact-product"] = _with_lowering(_prospect_product_source)
    return cases


def flat_lowerings() -> Dict[str, Callable[[], object]]:
    """The corpus's flat lowerings: every case with a property, and the
    ``ExactValidator`` product (no property)."""
    return {name: (lambda build=build: build()[0])
            for name, build in flat_cases().items()}


def _stream_cases() -> Iterator[Tuple[str, Callable[[], str]]]:
    lowerings = flat_lowerings()
    for task in STREAM_TASKS:
        name = f"stream-{task[0]}"
        yield name, lambda build=lowerings[name]: netlist_digest(build())


def all_cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for size in MACHINE_SIZES:
        cases.update(_machine_cases(size))
    cases.update(_cell_circuit_cases())
    cases.update(_stream_cases())
    for name in ("sodor-initial", "sodor-exact-validator",
                 "prospect-bug1-spectre", "prospect-exact-product"):
        cases[name] = lambda build=flat_lowerings()[name]: netlist_digest(build())
    return cases


# -- the tests ----------------------------------------------------------------

def _golden() -> Dict[str, str]:
    with open(GOLDEN) as handle:
        return json.load(handle)


FAMILIES = ("machine-small", "machine-default", "machine-large", "cells",
            "stream", "sodor-initial", "sodor-exact-validator",
            "prospect-bug1-spectre", "prospect-exact-product")


@pytest.mark.parametrize("family", FAMILIES)
def test_netlist_identity(family):
    golden = _golden()
    cases = {name: fn for name, fn in all_cases().items()
             if name == family or name.startswith(family + "-")}
    assert cases, family
    mismatched = [name for name, fn in cases.items() if fn() != golden[name]]
    assert not mismatched, f"netlists differ from the golden file: {mismatched}"


def test_golden_covers_the_corpus():
    assert set(_golden()) == set(all_cases())


def _family_cases(family: str) -> Dict[str, Callable[[], tuple]]:
    cases = {name: build for name, build in flat_cases().items()
             if name == family or name.startswith(family + "-")}
    assert cases, family
    return cases


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "cells"])
def test_flat_frame_program_and_fingerprint(family):
    """The encoder reads the flat netlist: same program, same cache keys.

    For every flat lowering of the corpus, the ``FrameProgram`` compiled
    from the netlist equals, field by field, the one compiled from the
    ``Circuit`` that ``to_circuit()`` builds (with its own topological
    order, inputs and registers), and the netlist hashes to the circuit's
    content fingerprint, so solve-cache and store keys do not move.
    """
    from repro.formal.cache import circuit_fingerprint
    from repro.formal.frameprog import compile_frame_program
    from repro.hdl.lowering import LoweredCircuit

    for name, build in _family_cases(family).items():
        lowered = build()[0]
        assert lowered.netlist is not None, name
        flat = compile_frame_program(lowered)
        # Validated on its own, so its topological order is its own.
        circuit = lowered.netlist.to_circuit(validate=False)
        circuit.validate()
        via_circuit = compile_frame_program(
            LoweredCircuit(circuit, lowered.bits, lowered.pruned_resets))
        assert flat == via_circuit, name
        assert circuit_fingerprint(lowered) == circuit_fingerprint(lowered.circuit), name


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "cells"])
def test_interpreted_frames_match_reference_encoder(family):
    """Interpreting the op program folds as ``FrameEncoder`` does.

    Every flat lowering, unrolled for three frames under the concrete
    reset and under a fully symbolic initial state, leaves the solver
    as the reference encoder does: the same variables, and the same
    clause arena and binary watches in the same order, so SAT variable
    numbering cannot move.
    """
    from repro.formal.unroll import Unroller

    for name, build in _family_cases(family).items():
        lowered = build()[0]
        for symbolic in (False, True):
            fast = Unroller(lowered, symbolic_all=symbolic)
            ref = ReferenceUnroller(lowered, symbolic_all=symbolic)
            for _ in range(3):
                fast.add_frame()
                ref.add_frame()
            assert fast.solver.num_vars == ref.solver.num_vars, (name, symbolic)
            assert fast.solver._ca == ref.solver._ca, (name, symbolic)
            assert fast.solver._bin_watches == ref.solver._bin_watches, (name, symbolic)


def _reference_transition(lowered, prop):
    """PDR's transition frame as ``FrameEncoder`` encodes it over
    ``lowered.circuit``: state variables, then inputs, then the logic,
    then the per-cycle assumptions as unit clauses."""
    from repro.formal.encode import FrameEncoder
    from repro.formal.sat.solver import Solver

    circuit = lowered.circuit
    solver = Solver()
    true_lit = solver.new_var()
    solver.add_clause((true_lit,))
    frame = FrameEncoder(solver, true_lit)
    for reg in circuit.registers:
        frame.fresh(reg.q.name)
    for sig in circuit.inputs:
        frame.fresh(sig.name)
    frame.encode_combinational(circuit)
    for name in prop.assumptions:
        solver.add_clause((frame.lit(lowered.bits[name][0].name),))
    return solver, frame


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "cells"])
def test_pdr_frame_matches_reference_encoder(family):
    """PDR's transition solver holds what ``FrameEncoder`` encodes.

    On every flat lowering of the corpus, the op program interpreted
    over fresh state and input variables leaves PDR's solver as the
    reference encoding with state variables first does: the same
    variables, clause arena and binary watches in order, and the same
    state, next-state, bad and input literals.  A lowering with no
    property takes the first word-level signal its frame encodes as
    ``bad``.
    """
    from repro.formal.frameprog import frame_program_for
    from repro.formal.pdr import _TransitionSolver

    for name, build in _family_cases(family).items():
        lowered, _circuit, prop = build()
        if prop is None:
            slots = frame_program_for(lowered).slot_of_name
            prop = _bad_property(next(
                word for word, sigs in lowered.bits.items() if sigs[0].name in slots))
        ts = _TransitionSolver(lowered, prop)
        solver, frame = _reference_transition(lowered, prop)
        assert ts.solver.num_vars == solver.num_vars, name
        assert ts.solver._ca == solver._ca, name
        assert ts.solver._bin_watches == solver._bin_watches, name
        registers = lowered.circuit.registers
        assert ts.state_lit == {reg.q.name: frame.lit(reg.q.name) for reg in registers}, name
        assert ts.next_lit == {reg.q.name: frame.lit(reg.d.name) for reg in registers}, name
        assert ts.bad_lit == frame.lit(lowered.bits[prop.bad][0].name), name
        assert ts._input_bit_lits == [
            (word, [frame.lit(sig.name) for sig in sigs])
            for word, sigs in lowered.bits.items()
            if sigs and sigs[0].name in {s.name for s in lowered.circuit.inputs}], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {name: fn() for name, fn in all_cases().items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(record)} cases in {GOLDEN}")
