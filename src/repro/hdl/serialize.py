"""JSON netlist serialization (round-trippable circuit persistence).

The format is a small, versioned JSON document — the library's
interchange format for saving instrumented designs, sharing
counterexample setups, or diffing circuits across runs.  Unlike the
Verilog emitter (write-only, for external tools), this format round
trips exactly: ``load(dump(circuit))`` reproduces the circuit
structurally, including hierarchy annotations.

Version 2 adds an optional ``provenance`` section carrying the per-bit
name map of :func:`repro.hdl.lowering.lower_to_gates`, so a lowered
netlist round trips as a :class:`~repro.hdl.lowering.LoweredCircuit`
and lint diagnostics on it still resolve to hierarchical source paths
(``alu.x[3]`` instead of a bare gate name).  Version-1 documents load
unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, TextIO, Union

from repro.hdl.cells import Cell, CellOp, CellValidationError
from repro.hdl.circuit import Circuit, CircuitError, Register
from repro.hdl.lowering import LoweredCircuit
from repro.hdl.netlist import Netlist
from repro.hdl.signals import Signal, SignalKind

FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)


def circuit_to_dict(circuit: Union[Circuit, Netlist]) -> Dict[str, Any]:
    """Serialize a circuit to a JSON-compatible dictionary.

    A ``Circuit`` is encoded through its flat
    :class:`~repro.hdl.netlist.Netlist`, so a circuit and the netlist
    that builds it give one document.
    """
    net = circuit if isinstance(circuit, Netlist) else Netlist.from_circuit(circuit)
    return {
        "format": "repro-netlist",
        "version": FORMAT_VERSION,
        "name": net.name,
        # Sorted for a canonical, diff-friendly document (round trips
        # are exact fixpoints regardless of construction order).
        "signals": [
            {"name": name, "width": width, "kind": kind, "module": module}
            for name, (width, kind, module) in sorted(net.signals.items())
        ],
        "registers": [
            {"q": q, "d": d, "reset": reset} for q, d, reset in net.registers
        ],
        "cells": [
            {"op": op, "out": out, "ins": list(ins), "params": list(params),
             "module": module}
            for op, out, ins, params, module in net.cells
        ],
    }


def circuit_from_dict(data: Dict[str, Any], validate: bool = True) -> Circuit:
    """Rebuild a circuit from its dictionary form.

    With ``validate=False`` the circuit is reconstructed leniently —
    invariant violations (loops, undriven or multiply-driven signals)
    are preserved rather than rejected, so a broken netlist can still
    be loaded for linting.
    """
    if data.get("format") != "repro-netlist":
        raise ValueError("not a repro-netlist document")
    if data.get("version") not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported netlist version {data.get('version')!r}")
    circuit = Circuit(data["name"])
    signals: Dict[str, Signal] = {}
    for entry in data["signals"]:
        sig = Signal(entry["name"], entry["width"], SignalKind(entry["kind"]),
                     module=entry.get("module", ""))
        signals[sig.name] = sig
        if sig.kind is not SignalKind.REG:
            circuit.add_signal(sig)
    for entry in data["registers"]:
        q = signals[entry["q"]]
        d = signals[entry["d"]]
        circuit.add_register(Register(q, d, entry["reset"]))
    for entry in data["cells"]:
        cell = Cell(
            CellOp(entry["op"]),
            signals[entry["out"]],
            tuple(signals[n] for n in entry["ins"]),
            tuple((k, v) for k, v in entry.get("params", [])),
            module=entry.get("module", ""),
        )
        try:
            circuit.add_cell(cell)
        except (CircuitError, CellValidationError):
            if validate:
                raise
            # Lenient path: keep the offending cell so lint can see it.
            if cell.out.name not in circuit.signals:
                circuit.signals[cell.out.name] = cell.out
                if cell.out.kind is SignalKind.OUTPUT:
                    circuit.outputs.append(cell.out)
            circuit.cells.append(cell)
            circuit._producer.setdefault(cell.out.name, cell)
            circuit._changed()
    if validate:
        circuit.validate()
    return circuit


# ---------------------------------------------------------------------------
# lowered circuits (netlist + bit provenance)
# ---------------------------------------------------------------------------

def lowered_to_dict(lowered: LoweredCircuit) -> Dict[str, Any]:
    """Serialize a lowered circuit including its bit-provenance map."""
    doc = circuit_to_dict(lowered.circuit)
    doc["provenance"] = {
        orig: [sig.name for sig in bit_sigs]
        for orig, bit_sigs in sorted(lowered.bits.items())
    }
    return doc


def lowered_from_dict(data: Dict[str, Any], validate: bool = True) -> LoweredCircuit:
    """Rebuild a :class:`LoweredCircuit`; requires a ``provenance`` section."""
    if "provenance" not in data:
        raise ValueError("netlist document carries no provenance section")
    circuit = circuit_from_dict(data, validate=validate)
    bits: Dict[str, List[Signal]] = {}
    for orig, names in data["provenance"].items():
        bits[orig] = [circuit.signal(name) for name in names]
    return LoweredCircuit(circuit, bits)


def dump(circuit: Circuit, stream: TextIO, indent: int = 1) -> None:
    json.dump(circuit_to_dict(circuit), stream, indent=indent)


def dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit))


def load(stream: TextIO, validate: bool = True) -> Circuit:
    return circuit_from_dict(json.load(stream), validate=validate)


def loads(text: str, validate: bool = True) -> Circuit:
    return circuit_from_dict(json.loads(text), validate=validate)


def dump_lowered(lowered: LoweredCircuit, stream: TextIO, indent: int = 1) -> None:
    json.dump(lowered_to_dict(lowered), stream, indent=indent)


def load_lowered(stream: TextIO, validate: bool = True) -> LoweredCircuit:
    return lowered_from_dict(json.load(stream), validate=validate)
