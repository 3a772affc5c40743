"""Property-based tests: cell semantics vs gate lowering vs CNF encoding."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hdl import ModuleBuilder, lower_to_gates
from repro.hdl.cells import Cell, CellOp, evaluate_cell
from repro.hdl.optimize import simplify
from repro.hdl.signals import Signal, SignalKind
from repro.sim import Simulator

WIDTH = 6
value = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)
small = st.integers(min_value=0, max_value=7)


def _single_cell_circuit(op, in_widths, out_width, params=()):
    b = ModuleBuilder("cell")
    ins = [b.input(f"i{k}", w) for k, w in enumerate(in_widths)]
    out_sig = Signal("o", out_width, SignalKind.OUTPUT)
    b.circuit.add_signal(out_sig)
    cell = Cell(op, out_sig, tuple(v.signal for v in ins), params)
    b.circuit.add_cell(cell)
    return b.build(), cell


BINARY_OPS = [CellOp.AND, CellOp.OR, CellOp.XOR, CellOp.ADD, CellOp.SUB]
CMP_OPS = [CellOp.EQ, CellOp.NEQ, CellOp.ULT, CellOp.ULE]


class TestLoweringAgreesWithSemantics:
    @given(a=value, b=value, op=st.sampled_from(BINARY_OPS + CMP_OPS))
    @settings(max_examples=150, deadline=None)
    def test_binary_ops(self, a, b, op):
        out_w = 1 if op in CMP_OPS else WIDTH
        circ, cell = _single_cell_circuit(op, [WIDTH, WIDTH], out_w)
        expected = evaluate_cell(cell, [a, b])
        lowered = lower_to_gates(circ)
        sim = Simulator(lowered.circuit)
        frame = {}
        frame.update(lowered.unpack("i0", a))
        frame.update(lowered.unpack("i1", b))
        sim._evaluate_comb(frame)
        got = lowered.pack("o", {s.name: sim.peek(s.name) for s in lowered.bits["o"]})
        assert got == expected

    @given(a=value, sh=st.integers(min_value=0, max_value=15),
           op=st.sampled_from([CellOp.SHL, CellOp.SHR]))
    @settings(max_examples=100, deadline=None)
    def test_shifts(self, a, sh, op):
        circ, cell = _single_cell_circuit(op, [WIDTH, 4], WIDTH)
        expected = evaluate_cell(cell, [a, sh])
        lowered = lower_to_gates(circ)
        sim = Simulator(lowered.circuit)
        frame = {}
        frame.update(lowered.unpack("i0", a))
        frame.update(lowered.unpack("i1", sh))
        sim._evaluate_comb(frame)
        got = lowered.pack("o", {s.name: sim.peek(s.name) for s in lowered.bits["o"]})
        assert got == expected

    @given(sel=st.integers(min_value=0, max_value=1), a=value, b=value)
    @settings(max_examples=60, deadline=None)
    def test_mux(self, sel, a, b):
        circ, cell = _single_cell_circuit(CellOp.MUX, [1, WIDTH, WIDTH], WIDTH)
        expected = a if sel else b
        lowered = lower_to_gates(circ)
        sim = Simulator(lowered.circuit)
        frame = {"i0": sel}
        frame.update(lowered.unpack("i1", a))
        frame.update(lowered.unpack("i2", b))
        sim._evaluate_comb(frame)
        got = lowered.pack("o", {s.name: sim.peek(s.name) for s in lowered.bits["o"]})
        assert got == expected


class TestSimulatorEngineEquivalence:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_compiled_matches_interpreter(self, data):
        """The simulator's translated op program against the reference
        that interprets ``evaluate_cell`` cell by cell."""
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from conftest import ReferenceSimulator, random_cell_circuit

        seed = data.draw(st.integers(min_value=0, max_value=30))
        circ = random_cell_circuit(seed)
        compiled = Simulator(circ)
        interp = ReferenceSimulator(circ)
        for _ in range(5):
            frame = {
                f"in{i}": data.draw(st.integers(min_value=0, max_value=15))
                for i in range(3)
            }
            outputs, _snapshot = interp.step(frame)
            assert compiled.step(frame) == outputs


class TestOptimizerPreservesSemantics:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_simplify_equivalent(self, data):
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from conftest import random_cell_circuit

        seed = data.draw(st.integers(min_value=0, max_value=30))
        circ = random_cell_circuit(seed)
        opt = simplify(circ)
        s1, s2 = Simulator(circ), Simulator(opt)
        for _ in range(4):
            frame = {
                f"in{i}": data.draw(st.integers(min_value=0, max_value=15))
                for i in range(3)
            }
            assert s1.step(frame) == s2.step(frame)
