"""Frame compilation: compile a circuit's frame once, run it per frame.

The combinational logic of a sequential circuit is the *same* in every
time frame; only the literals standing for the frame's inputs and
register states change.  :func:`compile_frame_program` therefore
compiles a :class:`~repro.hdl.lowering.LoweredCircuit` once into a
:class:`FrameProgram`: a flat list of ``(opcode, output-slot,
input-slots…)`` int tuples in topological order, where a *slot* is a
dense index into a per-frame literal array.  :func:`execute_ops`
interprets it with full constant folding, without touching cells or
signal names.

The op program is the one encoder of the solving path: BMC and
k-induction frames (:class:`~repro.formal.unroll.Unroller`) and PDR's
transition frame (:mod:`repro.formal.pdr`) all come from it.
:class:`~repro.formal.encode.FrameEncoder` stays as the independent
encoder of the certificate checker, and the property suite checks that
interpreting a program adds exactly the variables and clauses
``FrameEncoder`` adds, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.hdl.cells import CellOp
from repro.hdl.lowering import LoweredCircuit
from repro.formal.encode import EncodingError
from repro.formal.sat.solver import Solver

#: Op program opcodes.  ``(OP_CONST, out_slot, bit)`` defines a
#: constant; every other op is ``(opcode, out_slot, in_slot, ...)``.
OP_CONST = 0
OP_BUF = 1
OP_NOT = 2
OP_AND = 3
OP_OR = 4
OP_XOR = 5

_OPCODE_OF = {
    "buf": OP_BUF,
    "not": OP_NOT,
    "and": OP_AND,
    "or": OP_OR,
    "xor": OP_XOR,
}


@dataclass(frozen=True)
class FrameProgram:
    """One compiled combinational frame, independent of any solver."""

    #: Flat ``(opcode, out_slot, ...)`` tuples in topological order.
    ops: Tuple[Tuple[int, ...], ...]
    #: Size of the per-frame literal array the op program writes.
    n_slots: int
    #: Gate-signal name -> op-program slot (every signal of the frame).
    slot_of_name: Dict[str, int]
    #: Slot of each register's ``q`` (``register_entries()`` order).
    boundary_slots: Tuple[int, ...]
    #: Slot of each frame input (``input_names()`` order).
    input_slots: Tuple[int, ...]


class InterpretedFrame:
    """One time frame produced by interpreting the op program.

    Exposes the slice of :class:`~repro.formal.encode.FrameEncoder` the
    engines rely on: ``lit(name)``, ``const_lit(value)`` and the
    ``true_lit`` attribute.
    """

    __slots__ = ("program", "true_lit", "vals")

    def __init__(self, program: FrameProgram, true_lit: int, vals: List[int]) -> None:
        self.program = program
        self.true_lit = true_lit
        self.vals = vals

    def lit(self, name: str) -> int:
        try:
            slot = self.program.slot_of_name[name]
        except KeyError:
            raise EncodingError(
                f"signal {name!r} not encoded in this frame program"
            ) from None
        return self.vals[slot]

    def const_lit(self, value: int) -> int:
        return self.true_lit if value else -self.true_lit


def execute_ops(
    program: FrameProgram,
    solver: Solver,
    true_lit: int,
    boundary_lits: Sequence[int],
    input_lits: Sequence[int],
) -> InterpretedFrame:
    """Interpret the op program with full constant folding.

    Folds exactly as ``FrameEncoder.encode_combinational`` does on the
    same circuit with the same boundary/input literals, and calls
    ``solver.new_var`` and ``solver.add_clause`` with the same
    arguments in the same order: an AND keeps its live operands in
    order without duplicates and folds ``a & ~a`` to false, an OR is an
    AND over negated operands, and an XOR chain folds ``a ^ a`` and
    ``a ^ ~a``.
    """
    vals = [0] * program.n_slots
    for slot, lit in zip(program.boundary_slots, boundary_lits):
        vals[slot] = lit
    for slot, lit in zip(program.input_slots, input_lits):
        vals[slot] = lit
    new_var = solver.new_var
    add_clause = solver.add_clause
    false_lit = -true_lit
    for op in program.ops:
        code = op[0]
        if code == OP_AND or code == OP_OR:
            # OR is De Morgan over AND: negate the operands and the result.
            sign = 1 if code == OP_AND else -1
            live: List[int] = []
            for slot in op[2:]:
                lit = sign * vals[slot]
                if lit == true_lit:
                    continue
                if lit == false_lit or -lit in live:
                    out = false_lit
                    break
                if lit not in live:
                    live.append(lit)
            else:
                if not live:
                    out = true_lit
                elif len(live) == 1:
                    out = live[0]
                else:
                    out = new_var()
                    for lit in live:
                        add_clause((-out, lit))
                    add_clause(tuple([out] + [-lit for lit in live]))
            vals[op[1]] = sign * out
        elif code == OP_XOR:
            acc = 0
            parity = False
            for slot in op[2:]:
                lit = vals[slot]
                if lit == true_lit:
                    parity = not parity
                elif lit == false_lit:
                    continue
                elif acc == 0:
                    acc = lit
                elif acc == lit:
                    acc = false_lit
                elif acc == -lit:
                    acc = true_lit
                else:
                    out = new_var()
                    add_clause((-out, acc, lit))
                    add_clause((-out, -acc, -lit))
                    add_clause((out, -acc, lit))
                    add_clause((out, acc, -lit))
                    acc = out
            if acc == 0:
                acc = false_lit
            vals[op[1]] = -acc if parity else acc
        elif code == OP_NOT:
            vals[op[1]] = -vals[op[2]]
        elif code == OP_BUF:
            vals[op[1]] = vals[op[2]]
        else:  # OP_CONST
            vals[op[1]] = true_lit if op[2] else false_lit
    return InterpretedFrame(program, true_lit, vals)


def compile_frame_program(lowered: LoweredCircuit) -> FrameProgram:
    """Compile the combinational logic of one frame into an op program.

    Register ``q`` signals become the boundary slots (in register
    order) and inputs the input slots (in input order); every cell adds
    one op.  A flat lowering is compiled from its ``netlist``, whose
    structure is checked in the same topological pass
    (:meth:`LoweredCircuit.topo_cells`); no ``Circuit`` is built.
    """
    cells = lowered.topo_cells()
    slot_of: Dict[str, int] = {}
    for q, _d, _reset in lowered.register_entries():
        slot_of[q] = len(slot_of)
    boundary_slots = tuple(range(len(slot_of)))
    for name in lowered.input_names():
        slot_of[name] = len(slot_of)
    input_slots = tuple(range(len(boundary_slots), len(slot_of)))
    ops: List[Tuple[int, ...]] = []
    for op, out, ins, params, _module in cells:
        if op == "const":
            code = (OP_CONST, len(slot_of), dict(params)["value"] & 1)
        else:
            opcode = _OPCODE_OF.get(op)
            if opcode is None:
                raise EncodingError(
                    f"cell op {CellOp(op)} is not gate-level; lower the circuit first")
            code = (opcode, len(slot_of)) + tuple([slot_of[n] for n in ins])
        slot_of[out] = len(slot_of)
        ops.append(code)
    return FrameProgram(
        ops=tuple(ops),
        n_slots=len(slot_of),
        slot_of_name=slot_of,
        boundary_slots=boundary_slots,
        input_slots=input_slots,
    )


def frame_program_for(lowered: LoweredCircuit) -> FrameProgram:
    """Memoized :func:`compile_frame_program`.

    The program is cached on the ``LoweredCircuit`` itself — lowered
    netlists are never mutated after construction (the same invariant
    the content-fingerprint cache relies on), so the program stays
    valid for the object's lifetime and is shared by every engine that
    encodes the same lowering (BMC, the induction step, PDR, the
    portfolio engines).
    """
    program = getattr(lowered, "_frame_program", None)
    if program is None:
        program = compile_frame_program(lowered)
        try:
            lowered._frame_program = program
        except AttributeError:  # pragma: no cover - plain dataclass allows attrs
            pass
    return program
