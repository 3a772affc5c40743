"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.cells import CellOp, evaluate_cell
from repro.formal.encode import FrameEncoder
from repro.formal.unroll import Unroller


@pytest.fixture
def builder():
    return ModuleBuilder("test")


def build_mux_chain(sel2_free: bool):
    """The paper's Figure 2 circuit: three muxes from source to sink.

    ``sel2_free=False`` pins the second/third selectors to 0 (no real
    flow, only a spurious taint flow under naive logic);
    ``sel2_free=True`` makes the flow real.
    """
    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel2 = b.input("sel2", 1) if sel2_free else b.const(0, 1)
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pub1 = b.reg("pub1", 4)
        pub1.drive(pub1)
        pub2 = b.reg("pub2", 4)
        pub2.drive(pub2)
        pub3 = b.reg("pub3", 4)
        pub3.drive(pub3)
        o1 = b.named("o1", b.mux(sel1, secret, pub1))
        o2 = b.named("o2", b.mux(sel2, o1, pub2))
        o3 = b.named("o3", b.mux(sel2, o2, pub3))
    b.output("sink", o3)
    return b.build()


def random_cell_circuit(seed: int, width: int = 4, depth: int = 10):
    """A random combinational+sequential circuit over most cell ops."""
    rng = random.Random(seed)
    b = ModuleBuilder(f"rand{seed}")
    vals = [b.input(f"in{i}", width) for i in range(3)]
    secret = b.reg("secret", width)
    secret.drive(secret)
    pub = b.reg("public", width)
    pub.drive(pub)
    vals += [secret, pub]
    with b.scope("m1"):
        acc = b.reg("acc", width)
        vals.append(acc)
        for _ in range(depth):
            op = rng.choice(
                "and or xor add sub mux eq ne ult ule shl shr not slice sext redor redand".split()
            )
            a, c = rng.choice(vals), rng.choice(vals)
            if op == "and":
                v = a & c
            elif op == "or":
                v = a | c
            elif op == "xor":
                v = a ^ c
            elif op == "add":
                v = a + c
            elif op == "sub":
                v = a - c
            elif op == "mux":
                v = b.mux(a.redor(), a, c)
            elif op == "eq":
                v = a.eq(c).zext(width)
            elif op == "ne":
                v = a.ne(c).zext(width)
            elif op == "ult":
                v = a.ult(c).zext(width)
            elif op == "ule":
                v = a.ule(c).zext(width)
            elif op == "shl":
                v = a << c[1:0].zext(2)
            elif op == "shr":
                v = a >> c[1:0].zext(2)
            elif op == "not":
                v = ~a
            elif op == "slice":
                v = a[width - 1:1].zext(width)
            elif op == "sext":
                v = a[1:0].sext(width)
            elif op == "redor":
                v = a.redor().zext(width)
            else:
                v = a.redand().zext(width)
            if v.width != width:
                v = v.zext(width)
            vals.append(v)
        acc.drive(vals[-1])
    b.output("out", vals[-1] ^ vals[-2])
    return b.build()


def random_stimulus(seed: int, cycles: int, width: int = 4):
    rng = random.Random(seed)
    return [
        {f"in{i}": rng.randrange(1 << width) for i in range(3)}
        for _ in range(cycles)
    ]


class ReferenceUnroller(Unroller):
    """An :class:`Unroller` whose frames the reference ``FrameEncoder``
    encodes over ``lowered.circuit``.

    Variables are allocated in the op program's order, register ``q``
    first and then the inputs, so a frame leaves the solver exactly as
    the interpreted frame does.
    """

    def add_frame(self):
        frame = FrameEncoder(self.solver, self.true_lit)
        previous = self.frames[-1] if self.frames else None
        for q, d, reset in self._registers:
            if previous is None:
                frame.define(q, self._initial_lit(q, reset))
            else:
                frame.define(q, previous.lit(d))
        for name in self._inputs:
            frame.fresh(name)
        frame.encode_combinational(self.lowered.circuit)
        self.frames.append(frame)
        return frame


class ReferenceSimulator:
    """A cycle as ``evaluate_cell`` over ``topo_cells()`` defines it."""

    def __init__(self, circuit, initial_state=None):
        self.circuit = circuit
        init = initial_state or {}
        self.values = {reg.q.name: init.get(reg.q.name, reg.reset_value) & reg.q.mask
                       for reg in circuit.registers}

    def step(self, inputs):
        values = self.values
        values.update(inputs)
        for cell in self.circuit.topo_cells():
            values[cell.out.name] = evaluate_cell(
                cell, [values[sig.name] for sig in cell.ins])
        outputs = {sig.name: values[sig.name] for sig in self.circuit.outputs}
        snapshot = dict(values)
        for name, value in [(reg.q.name, values[reg.d.name])
                            for reg in self.circuit.registers]:
            values[name] = value
        return outputs, snapshot

    def state(self):
        return {reg.q.name: self.values[reg.q.name] for reg in self.circuit.registers}


def rehome_into_modules(circuit, rng):
    """Copy ``circuit`` with random registers and cells moved into
    submodules ``m0``/``m1`` (inputs and outputs stay at the top)."""
    from repro.hdl.cells import Cell
    from repro.hdl.circuit import Circuit, Register
    from repro.hdl.signals import Signal, SignalKind

    moved = {}
    for sig in circuit.signals.values():
        module = ""
        if sig.kind not in (SignalKind.INPUT, SignalKind.OUTPUT):
            module = rng.choice(("", "m0", "m1"))
        name = f"{module}.{sig.name}" if module else sig.name
        moved[sig.name] = Signal(name, sig.width, sig.kind, module=module)
    out = Circuit(circuit.name)
    for sig in moved.values():
        out.add_signal(sig)
    for reg in circuit.registers:
        out.add_register(Register(moved[reg.q.name], moved[reg.d.name],
                                  reg.reset_value))
    for cell in circuit.cells:
        new_out = moved[cell.out.name]
        out.add_cell(Cell(cell.op, new_out,
                          tuple(moved[s.name] for s in cell.ins),
                          cell.params, module=new_out.module))
    out.validate()
    return out
