"""Hardware IR substrate.

This package provides the cell-level hardware intermediate representation
(IR) that the rest of the library operates on.  It plays the role FIRRTL
plays in the paper: a flattened netlist of multi-bit *cells* (macrocells
such as adders and multiplexers) plus registers, with hierarchical module
paths retained on every signal and cell so that module-level taint
grouping remains possible after flattening.

Public entry points:

- :class:`~repro.hdl.signals.Signal` / :class:`~repro.hdl.signals.SignalKind`
- :class:`~repro.hdl.cells.Cell` / :class:`~repro.hdl.cells.CellOp`
- :class:`~repro.hdl.circuit.Circuit` / :class:`~repro.hdl.circuit.Register`
- :class:`~repro.hdl.builder.ModuleBuilder` — the Chisel-like eDSL
- :func:`~repro.hdl.lowering.lower_to_gates` — cell → 1-bit gate lowering
- :class:`~repro.hdl.netlist.Netlist` — the flat netlist the SAT pipeline
  (lowering, :mod:`~repro.hdl.optimize`) works on
- :func:`~repro.hdl.stats.gate_count` / :func:`~repro.hdl.stats.register_bits`
"""

from repro.hdl.signals import Signal, SignalKind
from repro.hdl.cells import Cell, CellOp, evaluate_cell
from repro.hdl.circuit import Circuit, Register, CombinationalLoopError
from repro.hdl.builder import ModuleBuilder, Value, RegValue, Memory
from repro.hdl.lowering import lower_to_gates, LoweredCircuit
from repro.hdl.stats import gate_count, register_bits, CircuitStats, circuit_stats

__all__ = [
    "Signal",
    "SignalKind",
    "Cell",
    "CellOp",
    "evaluate_cell",
    "Circuit",
    "Register",
    "CombinationalLoopError",
    "ModuleBuilder",
    "Value",
    "RegValue",
    "Memory",
    "lower_to_gates",
    "LoweredCircuit",
    "gate_count",
    "register_bits",
    "CircuitStats",
    "circuit_stats",
]
