import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, CircuitError, CombinationalLoopError, Register
from repro.hdl.signals import Signal, SignalKind


def _wire(name, width=1, module=""):
    return Signal(name, width, SignalKind.WIRE, module=module)


class TestCircuitConstruction:
    def test_double_drive_rejected(self):
        c = Circuit("t")
        a = Signal("a", 1, SignalKind.INPUT)
        c.add_signal(a)
        c.add_cell(Cell(CellOp.BUF, _wire("x"), (a,)))
        with pytest.raises(CircuitError):
            c.add_cell(Cell(CellOp.NOT, _wire("x"), (a,)))

    def test_cannot_drive_input(self):
        c = Circuit("t")
        a = Signal("a", 1, SignalKind.INPUT)
        c.add_signal(a)
        with pytest.raises(CircuitError):
            c.add_cell(Cell(CellOp.NOT, a, (a,)))

    def test_unknown_fanin_rejected(self):
        c = Circuit("t")
        ghost = _wire("ghost")
        with pytest.raises(CircuitError):
            c.add_cell(Cell(CellOp.BUF, _wire("x"), (ghost,)))

    def test_conflicting_redefinition(self):
        c = Circuit("t")
        c.add_signal(_wire("a", 4))
        with pytest.raises(CircuitError):
            c.add_signal(_wire("a", 5))

    def test_register_width_mismatch(self):
        q = Signal("q", 4, SignalKind.REG)
        d = _wire("d", 5)
        with pytest.raises(CircuitError):
            Register(q, d)

    def test_register_reset_range(self):
        q = Signal("q", 2, SignalKind.REG)
        with pytest.raises(CircuitError):
            Register(q, _wire("d", 2), reset_value=7)


class TestTopologicalOrder:
    def test_topo_respects_dependencies(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        x = a + 1
        y = x ^ a
        b.output("o", y)
        circ = b.build()
        order = [c.out.name for c in circ.topo_cells()]
        assert order.index(x.name) < order.index(y.name)

    def test_combinational_loop_detected(self):
        c = Circuit("loop")
        x = _wire("x")
        y = _wire("y")
        c.add_signal(x)
        c.add_signal(y)
        c.add_cell(Cell(CellOp.BUF, y, (x,)))
        c.add_cell(Cell(CellOp.BUF, x, (y,)))
        with pytest.raises(CombinationalLoopError):
            c.topo_cells()

    def test_register_breaks_cycle(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 4)
        r.drive(r + 1)
        circ = b.build()
        circ.topo_cells()  # must not raise


class TestValidateOnce:
    def test_unchanged_circuit_is_checked_once(self, monkeypatch):
        """One structural pass per structure, and no lint on add_cell's cells.

        Every cell went through ``add_cell``, so ``validate`` runs only
        the Kahn pass (which finds loops) beside its wiring checks; a
        second ``validate()`` does nothing, and a mutation re-checks.
        """
        import repro.hdl.circuit as circuit_module
        import repro.lint.structural as structural

        circ = Circuit("t")
        a = circ.add_signal(Signal("a", 4, SignalKind.INPUT))
        circ.add_cell(Cell(CellOp.BUF, Signal("o", 4, SignalKind.OUTPUT), (a,)))
        passes, lints = [], []
        real_topo = circuit_module.topo_order
        monkeypatch.setattr(circuit_module, "topo_order",
                            lambda *args: passes.append(args[0]) or real_topo(*args))
        real_lint = structural.invariant_diagnostics
        monkeypatch.setattr(structural, "invariant_diagnostics",
                            lambda c: lints.append(c) or real_lint(c))
        circ.validate()
        circ.validate()
        assert passes == ["t"]
        circ.add_cell(Cell(CellOp.NOT, _wire("n", 4), (a,)))
        circ.validate()
        assert passes == ["t", "t"]
        assert lints == []

    def test_cell_appended_outside_add_cell_gets_the_full_lint(self, monkeypatch):
        import repro.lint.structural as structural

        circ = Circuit("t")
        a = circ.add_signal(Signal("a", 4, SignalKind.INPUT))
        circ.add_cell(Cell(CellOp.BUF, Signal("o", 4, SignalKind.OUTPUT), (a,)))
        lints = []
        real_lint = structural.invariant_diagnostics
        monkeypatch.setattr(structural, "invariant_diagnostics",
                            lambda c: lints.append(c) or real_lint(c))
        good = Cell(CellOp.NOT, _wire("n", 4), (a,))
        circ.cells.append(good)
        circ._producer["n"] = good
        circ.add_signal(good.out)
        circ.add_cell(Cell(CellOp.NOT, _wire("m", 4), (a,)))
        circ.validate()
        assert lints == [circ]
        assert circ.clone()._checked < len(circ.cells)

    def test_adopted_cells_skip_validate_cell_and_count_as_checked(self, monkeypatch):
        """``adopt_cells`` takes frozen cells from another circuit: no
        ``validate_cell``, but every check that depends on the circuit
        it joins, and the cells count as checked (no full lint)."""
        import repro.hdl.circuit as circuit_module
        import repro.lint.structural as structural

        src = Circuit("src")
        a = src.add_signal(Signal("a", 4, SignalKind.INPUT))
        n = src.add_cell(Cell(CellOp.NOT, _wire("n", 4), (a,)))
        m = src.add_cell(Cell(CellOp.AND, _wire("m", 4), (a, n.out)))
        dst = Circuit("dst")
        dst.add_signal(a)
        checked, lints = [], []
        monkeypatch.setattr(circuit_module, "validate_cell", checked.append)
        real_lint = structural.invariant_diagnostics
        monkeypatch.setattr(structural, "invariant_diagnostics",
                            lambda c: lints.append(c) or real_lint(c))
        dst.adopt_cells(src.cells)
        dst.validate()
        assert checked == [] and lints == []
        assert dst.cells == src.cells and dst._checked == 2
        assert dst.topo_cells() == [n, m]
        with pytest.raises(CircuitError, match="already driven"):
            dst.adopt_cells([n])
        other = Circuit("other")
        other.add_signal(Signal("a", 2, SignalKind.INPUT))
        with pytest.raises(CircuitError, match="references a different signal 'a'"):
            other.adopt_cells([n])
        with pytest.raises(CircuitError, match="references unknown signal 'n'"):
            Circuit("empty").adopt_cells([Cell(CellOp.BUF, _wire("b", 4), (n.out,))])

    def test_loop_added_after_validate_is_caught(self):
        c = Circuit("grow")
        a = c.add_signal(Signal("a", 1, SignalKind.INPUT))
        c.add_cell(Cell(CellOp.NOT, Signal("o", 1, SignalKind.OUTPUT), (a,)))
        c.validate()
        y = c.add_signal(_wire("y"))
        x = c.add_cell(Cell(CellOp.AND, _wire("x"), (a, y))).out
        c.add_cell(Cell(CellOp.BUF, y, (x,)))
        with pytest.raises(CombinationalLoopError):
            c.validate()


class TestQueries:
    def test_module_paths_and_registers_in_module(self):
        b = ModuleBuilder("t")
        with b.scope("a"):
            with b.scope("b"):
                r = b.reg("r", 2)
                r.drive(r)
        circ = b.build()
        assert "a.b" in circ.module_paths()
        assert [reg.q.name for reg in circ.registers_in_module("a")] == ["a.b.r"]
        assert [reg.q.name for reg in circ.registers_in_module("a.b")] == ["a.b.r"]
        assert circ.registers_in_module("c") == []

    def test_state_bits(self):
        b = ModuleBuilder("t")
        r1 = b.reg("r1", 3)
        r1.drive(r1)
        r2 = b.reg("r2", 5)
        r2.drive(r2)
        assert b.build().state_bits() == 8

    def test_clone_is_equivalent(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        r = b.reg("r", 4, reset=3)
        r.drive(a)
        b.output("o", r + a)
        circ = b.build()
        clone = circ.clone("copy")
        assert clone.name == "copy"
        assert len(clone.cells) == len(circ.cells)
        assert len(clone.registers) == len(circ.registers)
        clone.validate()

    def test_clone_keeps_order_and_fingerprint(self):
        from repro.formal.cache import circuit_fingerprint

        b = ModuleBuilder("t")
        a = b.input("a", 4)
        c = b.input("c", 4)
        r = b.reg("r", 4, reset=3)
        s = b.reg("s", 4)
        r.drive(a ^ s)
        s.drive(r + c)
        b.output("o", r + a)
        b.output("p", s & c)
        circ = b.build()
        clone = circ.clone()
        assert list(clone.signals) == list(circ.signals)
        assert clone.inputs == circ.inputs
        assert clone.outputs == circ.outputs
        assert clone.registers == circ.registers
        assert clone.cells == circ.cells
        assert circuit_fingerprint(clone) == circuit_fingerprint(circ)
        # The copy is independent: growing it leaves the source alone.
        clone.add_cell(Cell(CellOp.NOT, _wire("n", 4), (a,)))
        assert "n" not in circ.signals
        assert len(clone.cells) == len(circ.cells) + 1

    def test_fanout_index(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        x = a + 1
        y = a ^ 3
        b.output("o", x & y)
        circ = b.build()
        index = circ.fanout_index()
        assert len(index[a.name]) == 2
