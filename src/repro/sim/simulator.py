"""Cycle-accurate simulation of circuits.

:class:`Simulator` is a straightforward interpreter of the semantics
defined by :func:`repro.hdl.cells.evaluate_cell`: the reference engine
used by unit tests, counterexample replay and the CEGAR loop.  The fast
engine is :class:`repro.sim.batch.BatchSimulator`, which compiles the
circuit to bit planes and runs any number of lanes, one included.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.hdl.cells import Cell, evaluate_cell
from repro.hdl.circuit import Circuit
from repro.sim.waveform import Waveform


class SimulationError(RuntimeError):
    """Raised on inconsistent stimulus (missing inputs, bad widths)."""


class Simulator:
    """Reference interpreter for a circuit.

    Usage::

        sim = Simulator(circuit)
        sim.reset()
        outs = sim.step({"in_a": 3, "in_b": 1})
        value = sim.peek("some.internal.signal")
    """

    def __init__(self, circuit: Circuit, initial_state: Optional[Mapping[str, int]] = None) -> None:
        circuit.validate()
        self.circuit = circuit
        self._order: List[Cell] = circuit.topo_cells()
        self._values: Dict[str, int] = {}
        self._initial_state = dict(initial_state or {})
        self.cycle = 0
        self.reset()

    # ------------------------------------------------------------------
    def reset(self, initial_state: Optional[Mapping[str, int]] = None) -> None:
        """Reset registers (reset values, overridden by ``initial_state``)."""
        if initial_state is not None:
            self._initial_state = dict(initial_state)
        self._values.clear()
        self.cycle = 0
        for reg in self.circuit.registers:
            value = self._initial_state.get(reg.q.name, reg.reset_value)
            self._values[reg.q.name] = value & reg.q.mask

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the circuit outputs."""
        self._evaluate_comb(inputs or {})
        outputs = {sig.name: self._values[sig.name] for sig in self.circuit.outputs}
        self._clock()
        self.cycle += 1
        return outputs

    def peek(self, signal_name: str) -> int:
        """Value of any signal as of the last evaluation."""
        try:
            return self._values[signal_name]
        except KeyError:
            raise SimulationError(f"signal {signal_name!r} has no value yet") from None

    def snapshot(self) -> Dict[str, int]:
        """All current signal values (post-evaluation)."""
        return dict(self._values)

    def state(self) -> Dict[str, int]:
        """Current register values."""
        return {reg.q.name: self._values[reg.q.name] for reg in self.circuit.registers}

    # ------------------------------------------------------------------
    def _evaluate_comb(self, inputs: Mapping[str, int]) -> None:
        for sig in self.circuit.inputs:
            if sig.name not in inputs:
                raise SimulationError(f"missing input {sig.name!r}")
            value = inputs[sig.name]
            if not (0 <= value <= sig.mask):
                raise SimulationError(f"input {sig.name!r}: value {value} exceeds width {sig.width}")
            self._values[sig.name] = value
        values = self._values
        for cell in self._order:
            values[cell.out.name] = evaluate_cell(cell, [values[s.name] for s in cell.ins])

    def _clock(self) -> None:
        values = self._values
        next_values = [(reg.q.name, values[reg.d.name]) for reg in self.circuit.registers]
        for name, value in next_values:
            values[name] = value

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
        waveform = Waveform(names)
        for frame in stimulus:
            self._evaluate_comb(frame)
            waveform.record({name: self._values[name] for name in names})
            self._clock()
            self.cycle += 1
        return waveform
