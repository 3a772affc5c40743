"""Seeded structural defects are caught once, with ``Circuit.validate``'s text.

A flat netlist is checked in the frame compiler's topological pass
(:meth:`repro.hdl.netlist.Netlist.checked_order`), and a circuit built
cell by cell through ``add_cell`` skips the checks ``add_cell`` already
ran.  Each test below seeds one defect that only the skipped-or-moved
check can see, and expects the error ``Circuit.validate`` raises for it
today.
"""

import pytest

from repro.formal.frameprog import compile_frame_program
from repro.hdl import ModuleBuilder, lower_to_gates
from repro.hdl.cells import Cell, CellOp, CellValidationError
from repro.hdl.circuit import Circuit, CircuitError, CombinationalLoopError
from repro.hdl.lowering import LoweredCircuit
from repro.hdl.serialize import circuit_from_dict, circuit_to_dict
from repro.hdl.signals import Signal, SignalKind


def _gates():
    """A small valid gate netlist: a 2-bit register fed by an adder."""
    b = ModuleBuilder("m")
    x = b.input("x", 2)
    r = b.reg("r", 2)
    r.drive(r + x)
    b.output("o", r & x)
    lowered = lower_to_gates(b.build())
    assert compile_frame_program(lowered).ops
    return lowered.netlist


def _width_mismatch(net):
    net.signals["w2"] = (2, "wire", "")
    net.cells.append(("and", "w2", ("x[0]", "x[1]"), (), ""))


def _undriven_wire(net):
    net.signals["dangling"] = (1, "wire", "")


def _second_driver(net):
    net.cells.append(("not", net.cells[-1][1], ("x[0]",), (), ""))


def _combinational_loop(net):
    net.signals["lx"] = (1, "wire", "")
    net.signals["ly"] = (1, "wire", "")
    net.cells.append(("not", "lx", ("ly",), (), ""))
    net.cells.append(("buf", "ly", ("lx",), (), ""))


def _unknown_input(net):
    net.signals["u"] = (1, "wire", "")
    net.cells.append(("buf", "u", ("nowhere",), (), ""))


class TestFlatNetlistCheck:
    @pytest.mark.parametrize("seed, error, text", [
        (_width_mismatch, CircuitError,
         "circuit 'm.gates': w2: and -> w2: all widths must match output"),
        (_undriven_wire, CircuitError,
         "circuit 'm.gates': dangling: wire has no driver"),
        (_second_driver, CircuitError, "signal driven by both"),
        (_combinational_loop, CombinationalLoopError,
         "circuit 'm.gates': ly: combinational loop: ly -> lx -> ly"),
    ])
    def test_frame_compiler_raises_what_validate_raises(self, seed, error, text):
        net = _gates()
        seed(net)
        with pytest.raises(error) as reference:
            net.to_circuit(validate=False).validate()
        with pytest.raises(error) as caught:
            compile_frame_program(LoweredCircuit(None, {}, netlist=net))
        assert type(caught.value) is type(reference.value)
        assert str(caught.value) == str(reference.value)
        assert text in str(caught.value)

    def test_unknown_input_name_is_a_circuit_error(self):
        net = _gates()
        _unknown_input(net)
        with pytest.raises(CircuitError, match="unknown name 'nowhere'"):
            compile_frame_program(LoweredCircuit(None, {}, netlist=net))

    def test_checked_netlist_builds_a_validated_circuit(self):
        lowered = LoweredCircuit(None, {}, netlist=_gates())
        compile_frame_program(lowered)
        circuit = lowered.circuit
        assert circuit._validated
        assert [c.out.name for c in circuit.topo_cells()] == \
            [c[1] for c in lowered.netlist.topo_cells()]


def _bad_and(a):
    return Cell(CellOp.AND, Signal("o2", 4, SignalKind.WIRE),
                (a, Signal("b", 1, SignalKind.INPUT)))


class TestCircuitChangedOutsideAddCell:
    """A cell that skipped ``add_cell`` gets the full lint."""

    def _base(self):
        c = Circuit("t")
        a = c.add_signal(Signal("a", 4, SignalKind.INPUT))
        c.add_signal(Signal("b", 1, SignalKind.INPUT))
        c.add_cell(Cell(CellOp.NOT, Signal("o", 4, SignalKind.OUTPUT), (a,)))
        c.validate()
        return c, a

    def test_appended_bad_width_cell(self):
        c, a = self._base()
        bad = _bad_and(a)
        c.add_signal(bad.out)
        c.cells.append(bad)
        c._producer[bad.out.name] = bad
        with pytest.raises(CircuitError) as caught:
            c.validate()
        assert str(caught.value) == \
            "circuit 't': o2: and -> o2: all widths must match output"

    def test_add_cell_after_an_append_still_lints(self):
        c, a = self._base()
        bad = _bad_and(a)
        c.add_signal(bad.out)
        c.cells.append(bad)
        c._producer[bad.out.name] = bad
        c.add_cell(Cell(CellOp.BUF, Signal("p", 4, SignalKind.WIRE), (a,)))
        with pytest.raises(CircuitError, match="all widths must match output"):
            c.validate()

    def test_serialize_lenient_load(self):
        c, a = self._base()
        doc = circuit_to_dict(c)
        doc["signals"].append({"name": "o2", "width": 4, "kind": "wire", "module": ""})
        doc["cells"].append({"op": "and", "out": "o2", "ins": ["a", "b"],
                             "params": [], "module": ""})
        loaded = circuit_from_dict(doc, validate=False)
        with pytest.raises(CircuitError) as caught:
            loaded.validate()
        assert str(caught.value) == \
            "circuit 't': o2: and -> o2: all widths must match output"
        with pytest.raises(CellValidationError, match="all widths must match output"):
            circuit_from_dict(doc)
