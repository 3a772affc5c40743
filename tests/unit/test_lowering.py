import random

import pytest

from repro.hdl import ModuleBuilder, lower_to_gates
from repro.hdl.cells import GATE_OPS
from repro.sim import Simulator

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import random_cell_circuit, random_stimulus  # noqa: E402


def _cross_check(circ, stimulus):
    """Simulate cell-level and gate-level circuits; outputs must agree."""
    lowered = lower_to_gates(circ)
    cell_sim = Simulator(circ)
    gate_sim = Simulator(lowered.circuit)
    for frame in stimulus:
        cell_out = cell_sim.step(frame)
        gate_frame = {}
        for name, value in frame.items():
            gate_frame.update(lowered.unpack(name, value))
        gate_sim._evaluate_comb(gate_frame)
        for out in circ.outputs:
            packed = lowered.pack(
                out.name,
                {s.name: gate_sim.peek(s.name) for s in lowered.bits[out.name]},
            )
            assert packed == cell_out[out.name], out.name
        gate_sim._clock()


class TestLowering:
    def test_only_gate_ops_present(self):
        circ = random_cell_circuit(0)
        lowered = lower_to_gates(circ)
        assert all(cell.op in GATE_OPS for cell in lowered.circuit.cells)
        assert all(sig.width == 1 for sig in lowered.circuit.signals.values())

    def test_bit_provenance_complete(self):
        circ = random_cell_circuit(1)
        lowered = lower_to_gates(circ)
        for name, sig in circ.signals.items():
            assert len(lowered.bits[name]) == sig.width

    def test_registers_become_per_bit(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 4, reset=0b1010)
        r.drive(r + 1)
        lowered = lower_to_gates(b.build())
        regs = {reg.q.name: reg.reset_value for reg in lowered.circuit.registers}
        assert regs == {"r[0]": 0, "r[1]": 1, "r[2]": 0, "r[3]": 1}

    @pytest.mark.parametrize("seed", range(8))
    def test_semantics_preserved_random(self, seed):
        circ = random_cell_circuit(seed)
        _cross_check(circ, random_stimulus(seed + 50, 8))

    def test_width_1_signals_keep_names(self):
        b = ModuleBuilder("t")
        a = b.input("flag", 1)
        b.output("o", ~a)
        lowered = lower_to_gates(b.build())
        assert "flag" in lowered.circuit.signals

    def test_shift_lowering_against_semantics(self):
        b = ModuleBuilder("t")
        a = b.input("a", 5)  # non-power-of-two width exercises overflow bits
        sh = b.input("sh", 4)
        b.output("l", a << sh)
        b.output("r", a >> sh)
        circ = b.build()
        stim = [{"a": x, "sh": s} for x in (0, 1, 0b10101, 31) for s in range(10)]
        _cross_check(circ, stim)

    def test_pack_unpack_roundtrip(self):
        circ = random_cell_circuit(2)
        lowered = lower_to_gates(circ)
        for value in (0, 5, 15):
            bits = lowered.unpack("in0", value)
            assert lowered.pack("in0", bits) == value


class TestGateNameCollision:
    """A source signal named like a gate the lowering emits is refused."""

    @staticmethod
    def _circuit():
        from repro.hdl.cells import Cell, CellOp
        from repro.hdl.circuit import Circuit
        from repro.hdl.signals import Signal, SignalKind

        circ = Circuit("clash")
        a = circ.add_signal(Signal("a", 1, SignalKind.INPUT))
        b = circ.add_signal(Signal("b", 1, SignalKind.INPUT))
        # The first gate of module "" is named "_g1" by both lowerings.
        g1 = circ.add_signal(Signal("_g1", 1, SignalKind.WIRE))
        out = circ.add_signal(Signal("o", 1, SignalKind.OUTPUT))
        circ.add_cell(Cell(CellOp.AND, g1, (a, b)))
        circ.add_cell(Cell(CellOp.OR, out, (g1, a)))
        circ.validate()
        return circ

    @pytest.mark.parametrize("hashed", [False, True])
    def test_collision_raises(self, hashed):
        from repro.hdl.circuit import CircuitError

        with pytest.raises(CircuitError, match="collide with its signal names"):
            lower_to_gates(self._circuit(), hashed=hashed)
