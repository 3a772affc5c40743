"""Frame compilation: compile a circuit's frame once, run it per frame.

:class:`~repro.formal.encode.FrameEncoder` re-walks the whole gate
netlist for every time frame — cell objects, string-keyed dict lookups,
re-running the constant-folding logic on identical structure each
time.  But the combinational logic of a sequential circuit is the
*same* in every frame; only the literals standing for the frame's
inputs and register states change.  :func:`compile_frame_program`
therefore compiles a :class:`~repro.hdl.lowering.LoweredCircuit` once
into a :class:`FrameProgram`: a flat list of ``(opcode, output-slot,
input-slots…)`` int tuples in topological order, where a *slot* is a
dense index into a per-frame literal array.  Interpreting it
(:func:`execute_ops`) reproduces ``FrameEncoder``'s encoding exactly —
the same constant folding, the same ``new_var``/``add_clause`` calls
in the same order — without touching cells or signal names.

The same interpreter also yields the **pre-folded clause template**
(:class:`FrameTemplate`): the clauses it emits for a frame whose
boundary literals (register ``q`` values) are all opaque symbols.  It
is recorded by running :func:`execute_ops` once against a sink whose
variables are template values — the global TRUE constant, a *boundary
slot* (one per register) or a *fresh slot* (one per frame input and
surviving gate output).  Stamping the template (:class:`StampedFrame`)
is integer arithmetic: bulk-allocate the fresh block, append the
*pure* clauses (fresh-only literals) to the solver arena with a single
per-literal offset (:meth:`Solver.stamp_clauses`), and route the few
*mixed* clauses that mention boundary slots through the normalising
``add_clause``.

:meth:`repro.formal.unroll.Unroller.add_frame` picks per frame: while
any boundary literal is a constant (frame 0 under a concrete reset,
and as long as the constants keep propagating through register ``d``
inputs), the op program is interpreted; once the frame boundary is
fully symbolic — immediately, for k-induction's free initial state —
folding can no longer trigger and frames are stamped.  The template
is recorded the first time a program is stamped
(:meth:`FrameProgram.template`), so a run whose frames are all
interpreted never builds one.

``FrameEncoder`` remains the reference implementation; the property
suite checks the paths equisatisfiable frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.cells import CellOp
from repro.hdl.lowering import LoweredCircuit
from repro.formal.encode import EncodingError
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
class FrameTemplate:
    """The clauses of one frame whose boundary is fully symbolic.

    Template values ("tvals") are nonzero signed ints: ``abs(tv) == 1``
    is the TRUE constant, ``2 <= abs(tv) < 2 + n_boundary`` is boundary
    slot ``abs(tv) - 2``, anything above is fresh slot
    ``abs(tv) - 2 - n_boundary``.  A negative tval is the negation.
    """

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
    #: Op-program slot -> tval, for every signal of the frame.
    tvals: List[int]

    @property
    def num_clauses(self) -> int:
        count = len(self.mixed)
        i = 0
        while i < len(self.pure):
            count += 1
            i += 1 + self.pure[i]
        return count


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
    _template: Optional[FrameTemplate] = field(
        default=None, init=False, repr=False, compare=False)

    def template(self) -> FrameTemplate:
        """The clause template, recorded on first use and kept."""
        template = self._template
        if template is None:
            template = record_template(self)
            object.__setattr__(self, "_template", template)
        return template


class StampedFrame:
    """One time frame produced by stamping a :class:`FrameTemplate`.

    API-compatible with the slice of :class:`FrameEncoder` the unroller
    and engines rely on: ``lit(name)``, ``const_lit(value)`` and the
    ``true_lit`` attribute.
    """

    __slots__ = ("program", "template", "true_lit", "boundary_lits", "base")

    def __init__(
        self,
        program: FrameProgram,
        true_lit: int,
        boundary_lits: Sequence[int],
        base: int,
    ) -> None:
        self.program = program
        self.template = program.template()
        self.true_lit = true_lit
        self.boundary_lits = list(boundary_lits)
        #: First solver variable of this frame's fresh block.
        self.base = base

    def resolve(self, tval: int) -> int:
        """Map a template value to a DIMACS literal of this frame."""
        index = tval if tval > 0 else -tval
        if index == 1:
            lit = self.true_lit
        elif index < 2 + self.template.n_boundary:
            lit = self.boundary_lits[index - 2]
        else:
            lit = self.base + (index - 2 - self.template.n_boundary)
        return -lit if tval < 0 else lit

    def lit(self, name: str) -> int:
        try:
            slot = self.program.slot_of_name[name]
        except KeyError:
            raise EncodingError(
                f"signal {name!r} not encoded in this frame template"
            ) from None
        return self.resolve(self.template.tvals[slot])

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

    Folds exactly as ``FrameEncoder.encode_combinational`` does on the
    same circuit with the same boundary/input literals, and calls
    ``solver.new_var`` and ``solver.add_clause`` with the same
    arguments in the same order: an AND keeps its live operands in
    order without duplicates and folds ``a & ~a`` to false, an OR is an
    AND over negated operands, and an XOR chain folds ``a ^ a`` and
    ``a ^ ~a``.  Only those two methods of ``solver`` are used, so a
    recording sink can stand in for it (:func:`record_template`).
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


class _TemplateSink:
    """The ``new_var``/``add_clause`` surface of a solver, over tvals.

    ``new_var`` hands out fresh slots in order; ``add_clause`` splits
    clauses by whether stamping can skip normalisation.  Clauses the
    fold logic emits never contain duplicate or complementary literals
    (the AND/XOR folds remove those first), so a clause over fresh
    slots only can be appended to the solver arena verbatim — fresh
    variables are unassigned by construction, making
    satisfied/false-literal simplification a no-op.  Anything touching
    a boundary slot (whose per-frame literal may collide with another
    boundary's) stays on the normalising path.
    """

    def __init__(self, n_boundary: int) -> None:
        self.first_fresh = 2 + n_boundary
        self.num_vars = 1 + n_boundary
        self.pure: List[int] = []
        self.mixed: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, tvals: Tuple[int, ...]) -> None:
        offset = self.first_fresh
        if len(tvals) >= 2 and all(tv >= offset or -tv >= offset for tv in tvals):
            pure = self.pure
            pure.append(len(tvals))
            for tv in tvals:
                if tv > 0:
                    pure.append((tv - offset) << 1)
                else:
                    pure.append(((-tv - offset) << 1) | 1)
        else:
            self.mixed.append(tuple(tvals))


def record_template(program: FrameProgram) -> FrameTemplate:
    """Record the clause template by interpreting ``program`` once.

    Boundary slot ``i`` stands as tval ``2 + i`` and the inputs take
    the first fresh slots, in order, so the template is what
    :func:`execute_ops` emits for a frame whose boundary literals are
    all opaque and pairwise distinct.
    """
    n_boundary = len(program.boundary_slots)
    sink = _TemplateSink(n_boundary)
    inputs = [sink.new_var() for _ in program.input_slots]
    frame = execute_ops(program, sink, TRUE_TVAL, range(2, 2 + n_boundary), inputs)
    return FrameTemplate(
        n_boundary=n_boundary,
        n_fresh=sink.num_vars - 1 - n_boundary,
        pure=tuple(sink.pure),
        mixed=tuple(sink.mixed),
        tvals=frame.vals,
    )


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
    the content-fingerprint cache relies on), so the program, and the
    template it records on first stamp, stay valid for the object's
    lifetime and are shared by every engine that unrolls the same
    lowering (BMC, the induction step, the portfolio engines).
    """
    program = getattr(lowered, "_frame_program", None)
    if program is None:
        program = compile_frame_program(lowered)
        try:
            lowered._frame_program = program
        except AttributeError:  # pragma: no cover - plain dataclass allows attrs
            pass
    return program
