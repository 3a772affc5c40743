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
:func:`~repro.hdl.optimize.cone_of_influence` and
:func:`~repro.hdl.optimize.strash` rewrite one into the next.  The
pipeline builds a single ``Circuit`` at its end (:meth:`to_circuit`)
and validates it once.  Nothing is checked while the passes run: that
one ``Circuit.validate`` runs every check ``Circuit.add_cell`` would
have run on each cell.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, Register, topo_order
from repro.hdl.signals import Signal, SignalKind

#: ``(op, out, ins, params, module)``.
FlatCell = Tuple[str, str, Tuple[str, ...], Tuple[Tuple[str, int], ...], str]

_OPS = {op.value: op for op in CellOp}
_KINDS = {kind.value: kind for kind in SignalKind}
INPUT, OUTPUT, WIRE = SignalKind.INPUT.value, SignalKind.OUTPUT.value, SignalKind.WIRE.value


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

    def to_circuit(self, validate: bool = True) -> Circuit:
        """Build the equivalent :class:`Circuit`, validated once."""
        sigs = {name: Signal(name, width, _KINDS[kind], module)
                for name, (width, kind, module) in self.signals.items()}
        lookup = sigs.__getitem__
        circuit = Circuit._assemble(
            self.name, sigs,
            [Register(sigs[q], sigs[d], reset) for q, d, reset in self.registers],
            [Cell(_OPS[op], sigs[out], tuple(map(lookup, ins)), params, module)
             for op, out, ins, params, module in self.cells],
        )
        if validate:
            circuit.validate()
        return circuit
