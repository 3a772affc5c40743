"""Semantics battery: the word-level Simulator vs ``evaluate_cell``.

:class:`~repro.sim.Simulator` runs a translated op program;
:func:`repro.hdl.cells.evaluate_cell` stays the definition of every
cell.  ``ReferenceSimulator`` (``tests/conftest.py``) is the plain
definition of a cycle: inputs and registers, then ``evaluate_cell`` on
every cell of ``topo_cells()``, then every register takes its ``d``.
Every case checks that the two agree, cycle for cycle, on step
outputs, ``snapshot()`` and ``state()``:

- one-cell circuits for every :class:`CellOp` at random widths from 1
  to 70 (words wider than 64 bits included), each cell applied once to
  inputs and once to registers, on random and edge-case values;
- fuzzed sequential machines (``random_machine``);
- taint-instrumented tiny Sodor and Rocket, for a few cycles.
"""

import os
import random
import sys

import pytest

from repro.bench.fuzz import random_machine
from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, Register
from repro.hdl.signals import Signal, SignalKind
from repro.sim import Simulator

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import ReferenceSimulator  # noqa: E402

MAX_WIDTH = 70


def _check(circuit, frames, initial_state=None):
    ref = ReferenceSimulator(circuit, initial_state)
    sim = Simulator(circuit, initial_state=initial_state)
    assert sim.snapshot() == ref.state()
    for cycle, frame in enumerate(frames):
        outputs, snapshot = ref.step(frame)
        assert sim.step(frame) == outputs, cycle
        assert sim.snapshot() == {**snapshot, **ref.state()}, cycle
        assert sim.state() == ref.state(), cycle
    # run() records the same values as pre-edge snapshots.
    names = list(circuit.signals)
    wave = Simulator(circuit, initial_state=initial_state).run(frames, record=names)
    ref = ReferenceSimulator(circuit, initial_state)
    for cycle, frame in enumerate(frames):
        _, snapshot = ref.step(frame)
        assert {name: wave.value(name, cycle) for name in names} == snapshot, cycle


def _value(rng, width):
    """A random value of ``width`` bits, often an edge case."""
    mask = (1 << width) - 1
    pick = rng.random()
    if pick < 0.15:
        return 0
    if pick < 0.3:
        return mask
    if pick < 0.45:
        return 1 << (width - 1)
    return rng.getrandbits(width)


def _cell_case(op, rng):
    """``(in_widths, out_width, params)`` of one random cell of ``op``."""
    w = rng.randint(1, MAX_WIDTH)
    if op is CellOp.CONST:
        return [], w, (("value", _value(rng, w)),)
    if op in (CellOp.BUF, CellOp.NOT, CellOp.REDOR, CellOp.REDAND, CellOp.REDXOR):
        return [w], 1 if op.value.startswith("red") else w, ()
    if op in (CellOp.AND, CellOp.OR, CellOp.XOR):
        return [w] * rng.randint(2, 4), w, ()
    if op is CellOp.MUX:
        return [1, w, w], w, ()
    if op in (CellOp.ADD, CellOp.SUB):
        return [w, w], w, ()
    if op in (CellOp.EQ, CellOp.NEQ, CellOp.ULT, CellOp.ULE):
        return [w, w], 1, ()
    if op in (CellOp.SHL, CellOp.SHR):
        return [w, rng.randint(1, 8)], w, ()
    if op is CellOp.CONCAT:
        widths = [rng.randint(1, MAX_WIDTH // 3) for _ in range(rng.randint(1, 4))]
        return widths, sum(widths), ()
    if op is CellOp.SLICE:
        lo = rng.randrange(w)
        hi = rng.randint(lo, w - 1)
        return [w], hi - lo + 1, (("lo", lo), ("hi", hi))
    assert op in (CellOp.ZEXT, CellOp.SEXT)
    return [w], rng.randint(w, MAX_WIDTH), ()


def _one_cell_circuit(op, in_widths, out_width, params):
    """The cell applied to inputs and, once more, to registers fed by them.

    The second copy reads register slots, which the translation treats
    differently from input slots (no aliasing through a register).
    """
    circuit = Circuit(f"cell_{op.value}")
    ins, regs = [], []
    for k, width in enumerate(in_widths):
        sig = circuit.add_signal(Signal(f"i{k}", width, SignalKind.INPUT))
        q = Signal(f"r{k}", width, SignalKind.REG)
        circuit.add_register(Register(q, sig, 0))
        ins.append(sig)
        regs.append(q)
    for suffix, sources in (("in", ins), ("reg", regs)):
        out = Signal(f"o_{suffix}", out_width, SignalKind.OUTPUT)
        circuit.add_cell(Cell(op, out, tuple(sources), params))
    circuit.validate()
    return circuit


def _frames(circuit, rng, cycles, related=False):
    """Random frames; ``related`` makes every input share one value
    often enough that EQ/ULE-style comparisons come out true."""
    frames = []
    for _ in range(cycles):
        if related and rng.random() < 0.5:
            base = rng.getrandbits(MAX_WIDTH)
            frames.append({sig.name: base & sig.mask for sig in circuit.inputs})
        else:
            frames.append({sig.name: _value(rng, sig.width) for sig in circuit.inputs})
    return frames


@pytest.mark.parametrize("op", list(CellOp), ids=lambda op: op.value)
@pytest.mark.parametrize("seed", range(12))
def test_every_cell_op_matches_evaluate_cell(op, seed):
    rng = random.Random(f"{op.value}-{seed}")
    circuit = _one_cell_circuit(op, *_cell_case(op, rng))
    _check(circuit, _frames(circuit, rng, 5, related=True))


@pytest.mark.parametrize("seed", range(30))
def test_random_machines_match_evaluate_cell(seed):
    circuit = random_machine(seed, width=1 + seed % MAX_WIDTH, max_regs=4, max_ops=12)
    rng = random.Random(seed)
    initial = {reg.q.name: rng.getrandbits(reg.q.width) for reg in circuit.registers}
    _check(circuit, _frames(circuit, rng, 8), initial_state=initial if seed % 2 else None)


def _tiny_core_circuits(core_name):
    from repro.cegar.loop import instrument_task
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, core_registry
    from repro.taint import cellift_scheme

    cfg = CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)
    task = make_contract_task(core_registry()[core_name](cfg))
    for scheme in (task.initial_scheme(), cellift_scheme()):
        yield instrument_task(task, scheme)[0].circuit


@pytest.mark.parametrize("core_name", ["Sodor", "Rocket"])
def test_instrumented_tiny_cores_match_evaluate_cell(core_name):
    for n, circuit in enumerate(_tiny_core_circuits(core_name)):
        rng = random.Random(n)
        initial = {reg.q.name: rng.getrandbits(reg.q.width) for reg in circuit.registers}
        _check(circuit, _frames(circuit, rng, 4), initial_state=initial)
