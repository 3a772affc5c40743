"""Flat netlists: the working form of the SAT netlist pipeline.

A :class:`Netlist` holds what a :class:`~repro.hdl.circuit.Circuit`
holds, without a ``Signal`` or ``Cell`` object per element:

- ``signals`` maps a name to ``(width, kind, module)``, in declaration
  order (the first declaration of a name wins, as in
  ``Circuit.add_signal``);
- a register is the tuple ``(q, d, reset)`` of names and reset value;
- a cell is the tuple ``(op, out, ins, params, module)`` with ``ins`` a
  tuple of names and ``params`` as on :class:`~repro.hdl.cells.Cell`.

``op`` and ``kind`` are the *values* of :class:`~repro.hdl.cells.CellOp`
and :class:`~repro.hdl.signals.SignalKind` (``"and"``, ``"wire"``):
tuples holding only strings and numbers drop out of the cyclic garbage
collector's tracking, which otherwise re-traverses every one of the
hundred thousand cells of an instrumented core on each full collection.

Gate lowering (:func:`repro.hdl.lowering.lower_to_gates`) emits into
one, and :func:`~repro.hdl.optimize.simplify`,
:func:`~repro.hdl.optimize.cone_of_influence`,
:func:`~repro.hdl.optimize.strash` and
:func:`~repro.hdl.optimize.eliminate_dead` rewrite one into the next.
The SAT pipeline lowers hashed, folding and hash-consing each gate as
it is emitted, and then cuts the property's cone.  Nothing is checked
while the passes run, and the pipeline builds no ``Circuit``: the
frame compiler
(:func:`repro.formal.frameprog.compile_frame_program`) reads the last
netlist, and its one topological pass (:meth:`Netlist.checked_order`)
runs every check ``Circuit.validate`` and ``Circuit.add_cell`` would
have run.  A ``Circuit`` is built (:meth:`to_circuit`) only for a
consumer that reads one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.cells import Cell, CellOp, CellValidationError, validate_cell
from repro.hdl.circuit import (
    Circuit,
    CircuitError,
    CombinationalLoopError,
    Register,
    topo_order,
)
from repro.hdl.signals import Signal, SignalKind

#: ``(op, out, ins, params, module)``.
FlatCell = Tuple[str, str, Tuple[str, ...], Tuple[Tuple[str, int], ...], str]

_OPS = {op.value: op for op in CellOp}
_KINDS = {kind.value: kind for kind in SignalKind}
INPUT, OUTPUT, WIRE = SignalKind.INPUT.value, SignalKind.OUTPUT.value, SignalKind.WIRE.value
REG = SignalKind.REG.value


class Netlist:
    """A circuit as a signal table plus plain-tuple registers and cells."""

    __slots__ = ("name", "signals", "registers", "cells")

    def __init__(self, name: str) -> None:
        self.name = name
        self.signals: Dict[str, Tuple[int, str, str]] = {}
        self.registers: List[Tuple[str, str, int]] = []
        self.cells: List[FlatCell] = []

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "Netlist":
        net = cls(circuit.name)
        net.signals = {name: (sig.width, sig.kind.value, sig.module)
                       for name, sig in circuit.signals.items()}
        net.registers = [(reg.q.name, reg.d.name, reg.reset_value)
                         for reg in circuit.registers]
        net.cells = [(cell.op.value, cell.out.name, tuple(s.name for s in cell.ins),
                      cell.params, cell.module) for cell in circuit.cells]
        return net

    def inputs(self) -> List[str]:
        return [name for name, entry in self.signals.items()
                if entry[1] == INPUT]

    def outputs(self) -> List[str]:
        return [name for name, entry in self.signals.items()
                if entry[1] == OUTPUT]

    def topo_cells(self) -> List[FlatCell]:
        """Cells in the order ``Circuit.topo_cells`` gives the same list."""
        cells = self.cells
        order = topo_order(self.name, [cell[1] for cell in cells],
                           [cell[2] for cell in cells])
        return [cells[i] for i in order]

    def checked_order(self) -> List[int]:
        """Cell indices in ``topo_cells`` order, after checking the structure.

        One pass over the flat tuples checks every invariant of
        ``Circuit.validate`` and what building the ``Circuit`` checks:

        - cell arity and widths (``validate_cell``);
        - one driver per signal, and no driver on an INPUT or REG;
        - no undriven WIRE or OUTPUT;
        - a register for every REG signal, and registers whose ``q``
          and ``d`` are known signals of one width, with a reset value
          in range;
        - no unknown input names, no width below 1, no unknown kind;

        and the topological sort that follows finds combinational
        loops.  On any failure the ``Circuit`` is built and validated,
        so the error raised is the one ``validate()`` raises.
        """
        signals = self.signals
        entry = signals.get
        ok = True
        wired = 0  # WIRE/OUTPUT signals: each needs exactly one driver
        reg_signals = []
        for name, (width, kind, _module) in signals.items():
            if kind == WIRE or kind == OUTPUT:
                wired += 1
            elif kind == REG:
                reg_signals.append(name)
            elif kind not in _KINDS:
                ok = False
            if width < 1:
                ok = False
        registered = set()
        for q, d, reset in self.registers:
            q_entry, d_entry = entry(q), entry(d)
            if (q_entry is None or d_entry is None or q_entry[0] != d_entry[0]
                    or not 0 <= reset < 1 << q_entry[0]):
                ok = False
            registered.add(q)
        if not registered.issuperset(reg_signals):
            ok = False
        cells = self.cells
        outs: List[str] = []
        ins_of: List[Tuple[str, ...]] = []
        driven = 0
        for cell in cells:
            op, out, ins, params, _module = cell
            outs.append(out)
            ins_of.append(ins)
            out_entry = entry(out)
            if out_entry is None:
                ok = False
                continue
            width, kind = out_entry[0], out_entry[1]
            if kind == WIRE or kind == OUTPUT:
                driven += 1
            elif kind == INPUT or kind == REG:
                ok = False
            if op == "and" or op == "or" or op == "xor":
                if len(ins) < 2:
                    ok = False
                for name in ins:
                    in_entry = entry(name)
                    if in_entry is None or in_entry[0] != width:
                        ok = False
            elif op == "not" or op == "buf":
                in_entry = entry(ins[0]) if len(ins) == 1 else None
                if in_entry is None or in_entry[0] != width:
                    ok = False
            elif op == "const":
                if ins or not 0 <= dict(params).get("value", -1) < 1 << width:
                    ok = False
            elif not self._word_cell_ok(cell):
                ok = False
        if driven != wired or len(set(outs)) != len(outs):
            ok = False
        if ok:
            try:
                return topo_order(self.name, outs, ins_of)
            except CombinationalLoopError:
                pass
        self.to_circuit(validate=False).validate()
        raise CircuitError(f"circuit {self.name!r} failed its structural check")

    def _word_cell_ok(self, cell: FlatCell) -> bool:
        """``validate_cell`` on a cell that is not a 1-bit gate."""
        op, out, ins, params, module = cell
        signals = self.signals
        if op not in _OPS or any(name not in signals for name in ins):
            return False
        width, kind, _module = signals[out]
        try:
            validate_cell(Cell(
                _OPS[op], Signal(out, width, _KINDS[kind]),
                tuple(Signal(name, signals[name][0]) for name in ins), params, module))
        except (CellValidationError, KeyError):
            return False
        return True

    def to_circuit(self, validate: bool = True,
                   order: Optional[Sequence[int]] = None) -> Circuit:
        """Build the equivalent :class:`Circuit`.

        With ``validate`` the structure is checked first
        (:meth:`checked_order`); ``order`` is the result of a check that
        already ran on this netlist.  Either way the circuit starts
        validated, and ``Circuit.validate`` does not lint it again.
        With neither, nothing is checked.
        """
        if order is None and validate:
            order = self.checked_order()
        try:
            sigs = {name: Signal(name, width, _KINDS[kind], module)
                    for name, (width, kind, module) in self.signals.items()}
            lookup = sigs.__getitem__
            return Circuit._assemble(
                self.name, sigs,
                [Register(sigs[q], sigs[d], reset) for q, d, reset in self.registers],
                [Cell(_OPS[op], sigs[out], tuple(map(lookup, ins)), params, module)
                 for op, out, ins, params, module in self.cells],
                order,
            )
        except KeyError as exc:
            raise CircuitError(
                f"circuit {self.name!r} references unknown name {exc.args[0]!r}"
            ) from None
