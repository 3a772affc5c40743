"""Frame-template compilation: encode a circuit once, stamp it per frame.

:class:`~repro.formal.encode.FrameEncoder` re-walks the whole gate
netlist for every time frame — cell objects, string-keyed dict lookups,
re-running the constant-folding logic on identical structure each
time.  But the combinational logic of a sequential circuit is the
*same* in every frame; only the literals standing for the frame's
inputs and register states change.  :func:`compile_frame_program`
therefore compiles a :class:`~repro.hdl.lowering.LoweredCircuit` once
into a :class:`FrameProgram` holding two representations of the frame:

**The op program** — a flat list of ``(opcode, output-slot,
input-slots…)`` int tuples in topological order, where a *slot* is a
dense index into a per-frame literal array.  Interpreting it
(:func:`execute_ops`) reproduces ``FrameEncoder``'s encoding exactly —
including constant folding — without touching cells or signal names.

**The pre-folded clause template** — the clauses the encoder would
emit for a frame whose boundary literals (register ``q`` values) are
all opaque symbols.  Template literals are one of: the global TRUE
constant, a *boundary slot* (one per register), or a *fresh slot* (one
per frame input and surviving gate output).  Stamping the template
(:class:`StampedFrame`) is integer arithmetic: bulk-allocate the fresh
block, append the *pure* clauses (fresh-only literals) to the solver
arena with a single per-literal offset (:meth:`Solver.stamp_clauses`),
and route the few *mixed* clauses that mention boundary slots through
the normalising ``add_clause``.

:meth:`repro.formal.unroll.Unroller.add_frame` picks per frame: while
any boundary literal is a constant (frame 0 under a concrete reset,
and as long as the constants keep propagating through register ``d``
inputs), the op program is interpreted so folding happens exactly as
in the reference encoder; once the frame boundary is fully symbolic —
immediately, for k-induction's free initial state — folding can no
longer trigger and frames are stamped.

``FrameEncoder`` remains the reference implementation; the property
suite checks the paths equisatisfiable frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.cells import CellOp
from repro.hdl.lowering import LoweredCircuit
from repro.formal.encode import EncodingError, FrameEncoder
from repro.formal.sat.solver import Solver

#: Template value of the constant-TRUE literal (negate for FALSE).
TRUE_TVAL = 1

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
    """One compiled combinational frame, independent of any solver.

    Template values ("tvals") are nonzero signed ints: ``abs(tv) == 1``
    is the TRUE constant, ``2 <= abs(tv) < 2 + n_boundary`` is boundary
    slot ``abs(tv) - 2``, anything above is fresh slot
    ``abs(tv) - 2 - n_boundary``.  A negative tval is the negation.
    """

    # -- op program (interpreted path) ---------------------------------
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

    # -- clause template (stamped path) --------------------------------
    #: Number of boundary slots (= registers).
    n_boundary: int
    #: Number of fresh solver variables each stamped frame allocates.
    n_fresh: int
    #: Clauses over fresh slots only, flattened as ``size, lit, lit, …``
    #: with literals in the solver's internal ``(slot << 1) | sign``
    #: encoding — the operand of :meth:`Solver.stamp_clauses`.
    pure: Tuple[int, ...]
    #: Clauses that mention boundary/TRUE tvals; resolved per frame and
    #: added through the normalising ``add_clause``.
    mixed: Tuple[Tuple[int, ...], ...]
    #: Gate-signal name -> tval, for every signal of the frame.
    tval_of_name: Dict[str, int]

    @property
    def num_template_clauses(self) -> int:
        count = len(self.mixed)
        i = 0
        while i < len(self.pure):
            count += 1
            i += 1 + self.pure[i]
        return count


class StampedFrame:
    """One time frame produced by stamping a :class:`FrameProgram`.

    API-compatible with the slice of :class:`FrameEncoder` the unroller
    and engines rely on: ``lit(name)``, ``const_lit(value)`` and the
    ``true_lit`` attribute.
    """

    __slots__ = ("program", "true_lit", "boundary_lits", "base")

    def __init__(
        self,
        program: FrameProgram,
        true_lit: int,
        boundary_lits: Sequence[int],
        base: int,
    ) -> None:
        self.program = program
        self.true_lit = true_lit
        self.boundary_lits = list(boundary_lits)
        #: First solver variable of this frame's fresh block.
        self.base = base

    def resolve(self, tval: int) -> int:
        """Map a template value to a DIMACS literal of this frame."""
        index = tval if tval > 0 else -tval
        if index == 1:
            lit = self.true_lit
        elif index < 2 + self.program.n_boundary:
            lit = self.boundary_lits[index - 2]
        else:
            lit = self.base + (index - 2 - self.program.n_boundary)
        return -lit if tval < 0 else lit

    def lit(self, name: str) -> int:
        try:
            tval = self.program.tval_of_name[name]
        except KeyError:
            raise EncodingError(
                f"signal {name!r} not encoded in this frame template"
            ) from None
        return self.resolve(tval)

    def const_lit(self, value: int) -> int:
        return self.true_lit if value else -self.true_lit


class InterpretedFrame:
    """One time frame produced by interpreting the op program.

    Used while the frame boundary still carries constants (concrete
    resets), where folding pays; exposes the same ``lit``/``const_lit``
    surface as :class:`StampedFrame`.
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

    Semantically identical to ``FrameEncoder.encode_combinational`` on
    the same circuit with the same boundary/input literals — the AND/
    XOR folding is delegated to the encoder itself — but iterates int
    tuples instead of cell objects and writes a dense literal array
    instead of a name-keyed dict.
    """
    vals = [0] * program.n_slots
    for slot, lit in zip(program.boundary_slots, boundary_lits):
        vals[slot] = lit
    for slot, lit in zip(program.input_slots, input_lits):
        vals[slot] = lit
    folder = FrameEncoder(solver, true_lit)
    encode_and = folder._encode_and
    encode_xor = folder._encode_xor
    for op in program.ops:
        code = op[0]
        if code == OP_AND:
            vals[op[1]] = encode_and([vals[s] for s in op[2:]])
        elif code == OP_OR:
            vals[op[1]] = -encode_and([-vals[s] for s in op[2:]])
        elif code == OP_XOR:
            vals[op[1]] = encode_xor([vals[s] for s in op[2:]])
        elif code == OP_NOT:
            vals[op[1]] = -vals[op[2]]
        elif code == OP_BUF:
            vals[op[1]] = vals[op[2]]
        else:  # OP_CONST
            vals[op[1]] = true_lit if op[2] else -true_lit
    return InterpretedFrame(program, true_lit, vals)


class _TemplateBuilder:
    """Symbolic twin of ``FrameEncoder``: same fold rules, over tvals."""

    def __init__(self, n_boundary: int) -> None:
        self.n_boundary = n_boundary
        self.n_fresh = 0
        self.tval_of: Dict[str, int] = {}
        self.pure: List[int] = []
        self.mixed: List[Tuple[int, ...]] = []

    # -- slots ----------------------------------------------------------
    def fresh(self) -> int:
        tval = 2 + self.n_boundary + self.n_fresh
        self.n_fresh += 1
        return tval

    def _is_const(self, tval: int) -> Optional[int]:
        if tval == TRUE_TVAL:
            return 1
        if tval == -TRUE_TVAL:
            return 0
        return None

    def _is_fresh(self, tval: int) -> bool:
        return abs(tval) >= 2 + self.n_boundary

    def add_clause(self, tvals: Sequence[int]) -> None:
        """Record a clause, split by whether stamping can skip normalisation.

        Clauses the fold logic emits never contain duplicate or
        complementary literals (the AND/XOR encoders fold those away
        first), so a clause over fresh slots only can be appended to
        the solver arena verbatim — fresh variables are unassigned by
        construction, making satisfied/false-literal simplification a
        no-op.  Anything touching a boundary slot (whose per-frame
        literal may collide with another boundary's) stays on the
        normalising path.
        """
        if len(tvals) >= 2 and all(self._is_fresh(tv) for tv in tvals):
            offset = 2 + self.n_boundary
            self.pure.append(len(tvals))
            for tv in tvals:
                if tv > 0:
                    self.pure.append((tv - offset) << 1)
                else:
                    self.pure.append(((-tv - offset) << 1) | 1)
        else:
            self.mixed.append(tuple(tvals))

    # -- cell encoding (mirrors FrameEncoder.encode_cell exactly) -------
    def encode_cell(self, op: str, out_name: str, ins: Sequence[str], params) -> None:
        """Encode one flat cell ``(op, out, ins, params, ...)``."""
        tval_of = self.tval_of
        if op == "const":
            tval_of[out_name] = TRUE_TVAL if dict(params)["value"] & 1 else -TRUE_TVAL
            return
        tvals = [tval_of[name] for name in ins]
        if op == "buf":
            tval_of[out_name] = tvals[0]
        elif op == "not":
            tval_of[out_name] = -tvals[0]
        elif op == "and":
            tval_of[out_name] = self._encode_and(tvals)
        elif op == "or":
            tval_of[out_name] = -self._encode_and([-tv for tv in tvals])
        elif op == "xor":
            tval_of[out_name] = self._encode_xor(tvals)
        else:
            raise EncodingError(
                f"cell op {CellOp(op)} is not gate-level; lower the circuit first")

    def _encode_and(self, ins: Sequence[int]) -> int:
        live: List[int] = []
        seen = set()
        for tv in ins:
            const = self._is_const(tv)
            if const == 0:
                return -TRUE_TVAL
            if const == 1:
                continue
            if -tv in seen:
                return -TRUE_TVAL  # a AND ~a
            if tv not in seen:
                seen.add(tv)
                live.append(tv)
        if not live:
            return TRUE_TVAL
        if len(live) == 1:
            return live[0]
        out = self.fresh()
        for tv in live:
            self.add_clause((-out, tv))
        self.add_clause(tuple([out] + [-tv for tv in live]))
        return out

    def _encode_xor(self, ins: Sequence[int]) -> int:
        acc: Optional[int] = None
        parity = 0
        for tv in ins:
            const = self._is_const(tv)
            if const is not None:
                parity ^= const
                continue
            if acc is None:
                acc = tv
            else:
                acc = self._xor2(acc, tv)
        if acc is None:
            return TRUE_TVAL if parity else -TRUE_TVAL
        return -acc if parity else acc

    def _xor2(self, a: int, b: int) -> int:
        if a == b:
            return -TRUE_TVAL
        if a == -b:
            return TRUE_TVAL
        out = self.fresh()
        self.add_clause((-out, a, b))
        self.add_clause((-out, -a, -b))
        self.add_clause((out, -a, b))
        self.add_clause((out, a, -b))
        return out


def compile_frame_program(lowered: LoweredCircuit) -> FrameProgram:
    """Compile the combinational logic of one frame into a template.

    Register ``q`` signals become boundary slots (in register order)
    and inputs become the first fresh slots (in input order).  The
    clause template folds the netlist exactly as ``FrameEncoder`` would
    fold a frame whose boundary literals are all opaque; the op program
    preserves the unfolded structure for frames where constants make
    folding worthwhile.

    A flat lowering is compiled from its ``netlist``, whose structure
    is checked in the same topological pass
    (:meth:`LoweredCircuit.topo_cells`); no ``Circuit`` is built.
    """
    cells = lowered.topo_cells()
    registers = lowered.register_entries()
    builder = _TemplateBuilder(len(registers))
    tval_of = builder.tval_of
    slot_of: Dict[str, int] = {}

    def slot(name: str) -> int:
        s = slot_of.get(name)
        if s is None:
            s = len(slot_of)
            slot_of[name] = s
        return s

    boundary_slots: List[int] = []
    for index, (q, _d, _reset) in enumerate(registers):
        tval_of[q] = 2 + index
        boundary_slots.append(slot(q))
    input_slots: List[int] = []
    for name in lowered.input_names():
        tval_of[name] = builder.fresh()
        input_slots.append(slot(name))
    ops: List[Tuple[int, ...]] = []
    encode_cell = builder.encode_cell
    for op, out, ins, params, _module in cells:
        encode_cell(op, out, ins, params)
        out_slot = slot(out)
        if op == "const":
            ops.append((OP_CONST, out_slot, dict(params)["value"] & 1))
        else:
            ops.append((_OPCODE_OF[op], out_slot) + tuple([slot_of[n] for n in ins]))
    return FrameProgram(
        ops=tuple(ops),
        n_slots=len(slot_of),
        slot_of_name=slot_of,
        boundary_slots=tuple(boundary_slots),
        input_slots=tuple(input_slots),
        n_boundary=builder.n_boundary,
        n_fresh=builder.n_fresh,
        pure=tuple(builder.pure),
        mixed=tuple(builder.mixed),
        tval_of_name=builder.tval_of,
    )


def frame_program_for(lowered: LoweredCircuit) -> FrameProgram:
    """Memoized :func:`compile_frame_program`.

    The program is cached on the ``LoweredCircuit`` itself — lowered
    netlists are never mutated after construction (the same invariant
    the content-fingerprint cache relies on), so the template stays
    valid for the object's lifetime and is shared by every engine that
    unrolls the same lowering (BMC, the induction step, the portfolio
    engines).
    """
    program = getattr(lowered, "_frame_program", None)
    if program is None:
        program = compile_frame_program(lowered)
        try:
            lowered._frame_program = program
        except AttributeError:  # pragma: no cover - plain dataclass allows attrs
            pass
    return program
