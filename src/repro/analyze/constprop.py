"""Ternary constant propagation over a lowered netlist.

Values live in the three-point lattice ``{0, 1, TOP}`` (``TOP`` = "may
be either").  The analysis interprets the *same* compiled op stream the
SAT encoder executes — :func:`repro.formal.frameprog.frame_program_for`
— so the abstract semantics cannot drift from the concrete
constant-fold semantics: both walk identical ``(opcode, out_slot,
in_slots...)`` tuples in identical topological order; this module
merely evaluates them over ternary values instead of solver literals.

Two evaluation modes:

- :func:`constant_fixpoint` — the classic abstract interpretation:
  registers start at their reset (or ``TOP`` when symbolic), inputs
  are ``TOP``, and register next-state values are joined back into the
  state until nothing changes.  The result over-approximates every
  value any signal takes in any reachable state under any input, so a
  signal whose fixpoint value is ``0`` or ``1`` is genuinely constant.
- :func:`ternary_frames` — frame-by-frame ternary simulation *without*
  joining, keeping per-frame precision: a deterministic counter stays
  concrete frame after frame even though its fixpoint is ``TOP``.
  Used by the static engine both to extend the proven-clean bound and
  to detect definite (all-input) property violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.hdl.lowering import LoweredCircuit
from repro.formal.frameprog import (
    OP_AND,
    OP_BUF,
    OP_CONST,
    OP_NOT,
    OP_OR,
    OP_XOR,
    FrameProgram,
    frame_program_for,
)
from repro.analyze.lattice import FixpointSolver

#: The "may be 0 or 1" element; 0 and 1 are themselves.
TOP = 2


def t_join(a: int, b: int) -> int:
    return a if a == b else TOP


def t_not(a: int) -> int:
    return TOP if a == TOP else 1 - a


def t_and(values) -> int:
    out = 1
    for v in values:
        if v == 0:
            return 0
        if v == TOP:
            out = TOP
    return out


def t_or(values) -> int:
    out = 0
    for v in values:
        if v == 1:
            return 1
        if v == TOP:
            out = TOP
    return out


def t_xor(values) -> int:
    out = 0
    for v in values:
        if v == TOP:
            return TOP
        out ^= v
    return out


def eval_frame(
    program: FrameProgram,
    state: List[int],
    input_value: int = TOP,
) -> List[int]:
    """One combinational frame over ternary values.

    ``state`` is the per-register ternary value in ``boundary_slots``
    order; inputs all take ``input_value``.  Mirrors the branch
    structure of :func:`repro.formal.frameprog.execute_ops` (AND over
    ``op[2:]``, OR via De Morgan, CONST carrying its bit in ``op[2]``).
    """
    vals = [TOP] * program.n_slots
    for slot, value in zip(program.boundary_slots, state):
        vals[slot] = value
    for slot in program.input_slots:
        vals[slot] = input_value
    for op in program.ops:
        code = op[0]
        if code == OP_AND:
            vals[op[1]] = t_and([vals[s] for s in op[2:]])
        elif code == OP_OR:
            vals[op[1]] = t_or([vals[s] for s in op[2:]])
        elif code == OP_XOR:
            vals[op[1]] = t_xor([vals[s] for s in op[2:]])
        elif code == OP_NOT:
            vals[op[1]] = t_not(vals[op[2]])
        elif code == OP_BUF:
            vals[op[1]] = vals[op[2]]
        else:  # OP_CONST
            vals[op[1]] = 1 if op[2] else 0
    return vals


def initial_state(
    lowered: LoweredCircuit,
    symbolic_registers: FrozenSet[str] = frozenset(),
    symbolic_all: bool = False,
) -> List[int]:
    """Per-register ternary reset state, in ``register_entries()`` order.

    ``symbolic_registers`` holds *original* (word-level) names; the
    per-bit register names they lower to are looked up through the
    provenance map, so callers pass :attr:`SafetyProperty
    .symbolic_registers` unchanged.
    """
    symbolic_bits = set()
    if symbolic_registers:
        for name in symbolic_registers:
            for sig in lowered.bits.get(name, ()):
                symbolic_bits.add(sig.name)
            symbolic_bits.add(name)  # width-1 registers keep their name
    state = []
    for q, _d, reset in lowered.register_entries():
        if symbolic_all or q in symbolic_bits:
            state.append(TOP)
        else:
            state.append(reset & 1)
    return state


@dataclass
class ConstFacts:
    """Result of :func:`constant_fixpoint`."""

    program: FrameProgram
    #: Fixpoint value per op-program slot.
    values: List[int]
    #: Joined register state at the fixpoint (``boundary_slots`` order).
    state: List[int]
    #: Worklist pops it took to converge (observability).
    pops: int = 0

    def value_of(self, name: str) -> int:
        """Ternary fixpoint value of a gate-level signal name."""
        slot = self.program.slot_of_name.get(name)
        return TOP if slot is None else self.values[slot]

    def word_value(self, lowered: LoweredCircuit, name: str) -> Optional[int]:
        """Concrete value of an original word signal, or None when any
        bit is ``TOP`` (or untracked)."""
        bit_sigs = lowered.bits.get(name)
        if not bit_sigs:
            bit = self.value_of(name)
            return None if bit == TOP else bit
        word = 0
        for i, sig in enumerate(bit_sigs):
            bit = self.value_of(sig.name)
            if bit == TOP:
                return None
            word |= bit << i
        return word

    def constant_names(self) -> Dict[str, int]:
        """Every gate-level signal pinned to 0/1 at the fixpoint."""
        return {
            name: self.values[slot]
            for name, slot in self.program.slot_of_name.items()
            if self.values[slot] != TOP
        }


def constant_fixpoint(
    lowered: LoweredCircuit,
    symbolic_registers: FrozenSet[str] = frozenset(),
    symbolic_all: bool = False,
) -> ConstFacts:
    """Least fixpoint of the joined ternary transition system.

    Soundness: the initial environment is the frame-0 valuation (a
    point below the fixpoint), transfers mirror the concrete gate
    semantics, and register nodes join their reset with their ``d``
    value — so the fixpoint over-approximates the value of every
    signal in every reachable state under every input sequence.
    """
    program = frame_program_for(lowered)
    init = initial_state(lowered, symbolic_registers, symbolic_all)
    vals = eval_frame(program, init)

    # Dependency graph over slots: combinational ops read their input
    # slots; a register's boundary slot reads its d-bit's slot.
    deps: Dict[int, Tuple[int, ...]] = {}
    op_of: Dict[int, Tuple[int, ...]] = {}
    for op in program.ops:
        out = op[1]
        op_of[out] = op
        deps[out] = () if op[0] == OP_CONST else tuple(op[2:])
    d_slot_of_boundary: Dict[int, int] = {}
    for slot, (_q, d, _reset) in zip(program.boundary_slots, lowered.register_entries()):
        d_slot = program.slot_of_name.get(d)
        if d_slot is None:
            deps[slot] = ()
        else:
            deps[slot] = (d_slot,)
            d_slot_of_boundary[slot] = d_slot
    for slot in program.input_slots:
        deps[slot] = ()

    def transfer(slot, value_of):
        op = op_of.get(slot)
        if op is not None:
            code = op[0]
            if code == OP_AND:
                return t_and([value_of(s) for s in op[2:]])
            if code == OP_OR:
                return t_or([value_of(s) for s in op[2:]])
            if code == OP_XOR:
                return t_xor([value_of(s) for s in op[2:]])
            if code == OP_NOT:
                return t_not(value_of(op[2]))
            if code == OP_BUF:
                return value_of(op[2])
            return 1 if op[2] else 0
        d_slot = d_slot_of_boundary.get(slot)
        if d_slot is not None:
            return value_of(d_slot)  # next-state, joined by the engine
        return value_of(slot)  # input or dangling boundary: keep as-is

    solver = FixpointSolver(deps, transfer, t_join, TOP)
    for slot, value in enumerate(vals):
        solver.env[slot] = value
    # Only register feedback can move the system off the frame-0
    # valuation; seed the worklist there.
    for slot in d_slot_of_boundary:
        solver._enqueue(slot)
    solver.solve()

    values = [solver.value(slot) for slot in range(program.n_slots)]
    state = [values[slot] for slot in program.boundary_slots]
    return ConstFacts(program=program, values=values, state=state,
                      pops=solver.pops)


@dataclass
class FrameTrace:
    """Result of :func:`ternary_frames`."""

    #: Per-frame combinational valuation (op-program slots).
    frames: List[List[int]]
    #: True when the ternary state space was exhausted (a revisited
    #: state closes the reachable set).
    closed: bool


def ternary_frames(
    lowered: LoweredCircuit,
    max_frames: int,
    symbolic_registers: FrozenSet[str] = frozenset(),
    symbolic_all: bool = False,
    stop=None,
) -> FrameTrace:
    """Frame-wise ternary simulation from the (ternary) reset state.

    Explores at most ``max_frames`` frames, stopping early when the
    state revisits itself (the reachable ternary state set is then
    closed — anything true of every explored frame is true of every
    reachable concrete state).  ``stop(frame_vals) -> bool`` may end
    exploration early (e.g. once ``bad`` stops being constant 0).
    """
    program = frame_program_for(lowered)
    state = initial_state(lowered, symbolic_registers, symbolic_all)
    d_slots = [program.slot_of_name.get(d)
               for _q, d, _reset in lowered.register_entries()]
    seen = set()
    frames: List[List[int]] = []
    closed = False
    for _ in range(max_frames):
        key = tuple(state)
        if key in seen:
            closed = True
            break
        seen.add(key)
        vals = eval_frame(program, state)
        frames.append(vals)
        if stop is not None and stop(vals):
            break
        state = [
            vals[d_slot] if d_slot is not None else current
            for d_slot, current in zip(d_slots, state)
        ]
    return FrameTrace(frames=frames, closed=closed)
