"""Cycle-accurate simulation of circuits.

:class:`Simulator` translates its circuit once, when it is built, into
a word-level op program and runs every cycle on that program: a flat
list of values indexed by *slot*, and ops of one fixed shape
``(code, out, a, b, c)`` in topological order.  ``out`` is the slot an
op writes; ``a``, ``b`` and ``c`` are input slots or precomputed masks,
shifts and widths, as each opcode's comment below says.  The
translation is a table keyed by :class:`~repro.hdl.cells.CellOp`:

- every register ``q``, input and cell output gets a slot; the register
  slots come first, so the clock is one gather of the ``d`` slots into
  the slice of ``q`` slots;
- CONST cells are folded into the slots' initial values;
- ``BUF`` and ``ZEXT`` cost nothing: their output reads its source's
  slot, unless that source is a register, whose slot the clock
  overwrites while ``peek`` must still show the value of the last
  evaluation;
- AND, OR and XOR have a 2-input form and an n-ary form; ``SLICE``,
  ``SEXT``, ``SHL`` and ``CONCAT`` carry their masks and shifts.

:func:`repro.hdl.cells.evaluate_cell` stays the semantics: the property
suite (``tests/property/test_simulator_semantics.py``) checks this
engine against a per-cell ``evaluate_cell`` loop over
:meth:`~repro.hdl.circuit.Circuit.topo_cells`.  The many-lane engine is
:class:`repro.sim.batch.BatchSimulator`, which compiles the circuit to
bit planes and is checked lane for lane against this one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit
from repro.sim.waveform import Waveform

#: Opcodes of the word-level op program, over the value list ``v``.
#: The run loop tests them in this order, the most frequent in
#: taint-instrumented cores first.
OP_OR2 = 0       # v[a] | v[b]
OP_AND2 = 1      # v[a] & v[b]
OP_MUX = 2       # v[b] if v[a] else v[c]
OP_SLICE = 3     # (v[a] >> b) & c
OP_EQ = 4        # v[a] == v[b]
OP_NOT = 5       # v[a] ^ c, c the output mask
OP_XOR2 = 6      # v[a] ^ v[b]
OP_COPY = 7      # v[a]: BUF or ZEXT of a register, one-input CONCAT
OP_SEXT = 8      # v[a] | c if v[a] & b else v[a], b the sign bit
OP_REDOR = 9     # v[a] != 0
OP_SHL = 10      # (v[a] << v[b]) & mask if v[b] < width else 0, c = (width, mask)
OP_REDAND = 11   # v[a] == c, c the input mask
OP_ADD = 12      # (v[a] + v[b]) & c
OP_NEQ = 13      # v[a] != v[b]
OP_SHR = 14      # v[a] >> v[b]
OP_CAT2 = 15     # (v[a] << c) | v[b], c the width of b
OP_SUB = 16      # (v[a] - v[b]) & c
OP_ULT = 17      # v[a] < v[b]
OP_ULE = 18      # v[a] <= v[b]
OP_REDXOR = 19   # parity of v[a]
OP_AND = 20      # n-ary AND over the slots in a
OP_OR = 21       # n-ary OR over the slots in a
OP_XOR = 22      # n-ary XOR over the slots in a
OP_CAT = 23      # n-ary CONCAT over the (slot, width) pairs in a

Op = Tuple[int, int, object, object, object]
Translator = Callable[[Cell, int, Mapping[str, int]], Op]


class SimulationError(RuntimeError):
    """Raised on inconsistent stimulus (missing inputs, bad widths)."""


def _unary(code: int) -> Translator:
    def translate(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
        return (code, out, slot_of[cell.ins[0].name], 0, 0)
    return translate


def _binary(code: int) -> Translator:
    def translate(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
        a, b = cell.ins
        return (code, out, slot_of[a.name], slot_of[b.name], 0)
    return translate


def _masked(code: int) -> Translator:
    """A two-input op that masks its result to the output width."""
    def translate(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
        a, b = cell.ins
        return (code, out, slot_of[a.name], slot_of[b.name], cell.out.mask)
    return translate


def _nary(code2: int, code: int) -> Translator:
    def translate(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
        if len(cell.ins) == 2:
            a, b = cell.ins
            return (code2, out, slot_of[a.name], slot_of[b.name], 0)
        return (code, out, tuple([slot_of[sig.name] for sig in cell.ins]), 0, 0)
    return translate


def _mux(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    sel, a, b = cell.ins
    return (OP_MUX, out, slot_of[sel.name], slot_of[a.name], slot_of[b.name])


def _not(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    return (OP_NOT, out, slot_of[cell.ins[0].name], 0, cell.out.mask)


def _shl(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    a, b = cell.ins
    return (OP_SHL, out, slot_of[a.name], slot_of[b.name],
            (cell.out.width, cell.out.mask))


def _concat(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    ins = cell.ins
    if len(ins) == 1:
        return (OP_COPY, out, slot_of[ins[0].name], 0, 0)
    if len(ins) == 2:
        a, b = ins
        return (OP_CAT2, out, slot_of[a.name], slot_of[b.name], b.width)
    return (OP_CAT, out, tuple([(slot_of[sig.name], sig.width) for sig in ins]), 0, 0)


def _slice(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    lo = cell.param("lo")
    return (OP_SLICE, out, slot_of[cell.ins[0].name], lo,
            (1 << (cell.param("hi") - lo + 1)) - 1)


def _sext(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    in_sig = cell.ins[0]
    return (OP_SEXT, out, slot_of[in_sig.name], 1 << (in_sig.width - 1),
            cell.out.mask & ~in_sig.mask)


def _redand(cell: Cell, out: int, slot_of: Mapping[str, int]) -> Op:
    in_sig = cell.ins[0]
    return (OP_REDAND, out, slot_of[in_sig.name], 0, in_sig.mask)


#: CellOp -> translator of one cell into the op that computes it.
#: ``None`` marks the ops that need no op: CONST folds into the initial
#: slot values, and BUF and ZEXT read their input's slot.
_TRANSLATE: Dict[CellOp, Optional[Translator]] = {
    CellOp.CONST: None,
    CellOp.BUF: None,
    CellOp.ZEXT: None,
    CellOp.NOT: _not,
    CellOp.AND: _nary(OP_AND2, OP_AND),
    CellOp.OR: _nary(OP_OR2, OP_OR),
    CellOp.XOR: _nary(OP_XOR2, OP_XOR),
    CellOp.MUX: _mux,
    CellOp.ADD: _masked(OP_ADD),
    CellOp.SUB: _masked(OP_SUB),
    CellOp.EQ: _binary(OP_EQ),
    CellOp.NEQ: _binary(OP_NEQ),
    CellOp.ULT: _binary(OP_ULT),
    CellOp.ULE: _binary(OP_ULE),
    CellOp.SHL: _shl,
    CellOp.SHR: _binary(OP_SHR),
    CellOp.CONCAT: _concat,
    CellOp.SLICE: _slice,
    CellOp.SEXT: _sext,
    CellOp.REDOR: _unary(OP_REDOR),
    CellOp.REDAND: _redand,
    CellOp.REDXOR: _unary(OP_REDXOR),
}


def _run_ops(ops: Sequence[Op], v: List[int]) -> None:
    """Interpret a word-level op program over the value list ``v``."""
    for code, out, a, b, c in ops:
        if code == OP_OR2:
            v[out] = v[a] | v[b]
        elif code == OP_AND2:
            v[out] = v[a] & v[b]
        elif code == OP_MUX:
            v[out] = v[b] if v[a] else v[c]
        elif code == OP_SLICE:
            v[out] = (v[a] >> b) & c
        elif code == OP_EQ:
            v[out] = 1 if v[a] == v[b] else 0
        elif code == OP_NOT:
            v[out] = v[a] ^ c
        elif code == OP_XOR2:
            v[out] = v[a] ^ v[b]
        elif code == OP_COPY:
            v[out] = v[a]
        elif code == OP_SEXT:
            x = v[a]
            v[out] = x | c if x & b else x
        elif code == OP_REDOR:
            v[out] = 1 if v[a] else 0
        elif code == OP_SHL:
            shamt = v[b]
            width, mask = c
            v[out] = (v[a] << shamt) & mask if shamt < width else 0
        elif code == OP_REDAND:
            v[out] = 1 if v[a] == c else 0
        elif code == OP_ADD:
            v[out] = (v[a] + v[b]) & c
        elif code == OP_NEQ:
            v[out] = 1 if v[a] != v[b] else 0
        elif code == OP_SHR:
            v[out] = v[a] >> v[b]
        elif code == OP_CAT2:
            v[out] = (v[a] << c) | v[b]
        elif code == OP_SUB:
            v[out] = (v[a] - v[b]) & c
        elif code == OP_ULT:
            v[out] = 1 if v[a] < v[b] else 0
        elif code == OP_ULE:
            v[out] = 1 if v[a] <= v[b] else 0
        elif code == OP_REDXOR:
            v[out] = bin(v[a]).count("1") & 1
        elif code == OP_AND:
            acc = v[a[0]]
            for slot in a:
                acc &= v[slot]
            v[out] = acc
        elif code == OP_OR:
            acc = 0
            for slot in a:
                acc |= v[slot]
            v[out] = acc
        elif code == OP_XOR:
            acc = 0
            for slot in a:
                acc ^= v[slot]
            v[out] = acc
        else:  # OP_CAT
            acc = 0
            for slot, width in a:
                acc = (acc << width) | v[slot]
            v[out] = acc


class Simulator:
    """Cycle-accurate simulator of one circuit, on its word-level op program.

    Usage::

        sim = Simulator(circuit)
        sim.reset()
        outs = sim.step({"in_a": 3, "in_b": 1})
        value = sim.peek("some.internal.signal")
    """

    def __init__(self, circuit: Circuit, initial_state: Optional[Mapping[str, int]] = None) -> None:
        circuit.validate()
        self.circuit = circuit
        slot_of: Dict[str, int] = {}
        for reg in circuit.registers:
            slot_of[reg.q.name] = len(slot_of)
        n_regs = len(slot_of)
        self._registers = [(reg.q.name, reg.reset_value, reg.q.mask)
                           for reg in circuit.registers]
        self._reg_slot_of = dict(slot_of)
        n_slots = n_regs
        inputs = []
        for sig in circuit.inputs:
            slot_of[sig.name] = n_slots
            inputs.append((sig.name, n_slots, sig.mask, sig.width))
            n_slots += 1
        self._inputs = inputs
        constants: List[Tuple[int, int]] = []
        ops: List[Op] = []
        table = _TRANSLATE
        for cell in circuit.topo_cells():
            translate = table[cell.op]
            if translate is not None:
                ops.append(translate(cell, n_slots, slot_of))
            elif cell.op is CellOp.CONST:
                constants.append((n_slots, cell.param("value")))
            else:  # BUF or ZEXT
                source = slot_of[cell.ins[0].name]
                if source >= n_regs:
                    slot_of[cell.out.name] = source
                    continue
                ops.append((OP_COPY, n_slots, source, 0, 0))
            slot_of[cell.out.name] = n_slots
            n_slots += 1
        self._ops = ops
        #: Readable signal name -> slot once the circuit was evaluated.
        self._slot_of = slot_of
        #: The names ``peek``/``snapshot`` may read: registers only
        #: until the first evaluation after a reset.
        self._visible = self._reg_slot_of
        self._outputs = [(sig.name, slot_of[sig.name]) for sig in circuit.outputs]
        self._values: List[int] = [0] * n_slots
        for slot, value in constants:
            self._values[slot] = value
        self._n_regs = n_regs
        d_slots = [slot_of[reg.d.name] for reg in circuit.registers]
        if n_regs == 1:
            (d_slot,) = d_slots
            self._gather = lambda values: (values[d_slot],)
        else:
            self._gather = itemgetter(*d_slots) if d_slots else lambda values: ()
        self._initial_state = dict(initial_state or {})
        self.cycle = 0
        self.reset()

    # ------------------------------------------------------------------
    def reset(self, initial_state: Optional[Mapping[str, int]] = None) -> None:
        """Reset registers (reset values, overridden by ``initial_state``)."""
        if initial_state is not None:
            self._initial_state = dict(initial_state)
        self.cycle = 0
        values = self._values
        init = self._initial_state
        for slot, (name, reset_value, mask) in enumerate(self._registers):
            values[slot] = init.get(name, reset_value) & mask
        self._visible = self._reg_slot_of

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the circuit outputs."""
        self._evaluate_comb(inputs or {})
        values = self._values
        outputs = {name: values[slot] for name, slot in self._outputs}
        self._clock()
        self.cycle += 1
        return outputs

    def peek(self, signal_name: str) -> int:
        """Value of any signal as of the last evaluation."""
        slot = self._visible.get(signal_name)
        if slot is None:
            raise SimulationError(f"signal {signal_name!r} has no value yet")
        return self._values[slot]

    def snapshot(self) -> Dict[str, int]:
        """All current signal values (post-evaluation)."""
        values = self._values
        return {name: values[slot] for name, slot in self._visible.items()}

    def state(self) -> Dict[str, int]:
        """Current register values."""
        values = self._values
        return {name: values[slot] for name, slot in self._reg_slot_of.items()}

    # ------------------------------------------------------------------
    def _evaluate_comb(self, inputs: Mapping[str, int]) -> None:
        values = self._values
        for name, slot, mask, width in self._inputs:
            if name not in inputs:
                raise SimulationError(f"missing input {name!r}")
            value = inputs[name]
            if not (0 <= value <= mask):
                raise SimulationError(f"input {name!r}: value {value} exceeds width {width}")
            values[slot] = value
        _run_ops(self._ops, values)
        self._visible = self._slot_of

    def _clock(self) -> None:
        values = self._values
        values[:self._n_regs] = self._gather(values)

    # ------------------------------------------------------------------
    def run(
        self,
        stimulus: Sequence[Mapping[str, int]],
        record: Optional[Iterable[str]] = None,
    ) -> Waveform:
        """Apply a stimulus sequence, recording a waveform.

        ``record`` selects signals to trace (default: all signals).
        The waveform records pre-edge values, so register traces show
        the value each register held *during* the cycle.
        """
        names = list(record) if record is not None else list(self.circuit.signals)
        values = self._values
        frames: List[List[int]] = []
        slots: List[int] = []
        for frame in stimulus:
            self._evaluate_comb(frame)
            if not frames:
                slot_of = self._slot_of
                slots = [slot_of[name] for name in names]
            frames.append(values[:])
            self._clock()
            self.cycle += 1
        return Waveform.from_frames(names, slots, frames)
