import pytest

from repro.hdl import ModuleBuilder, lower_to_gates
from repro.hdl.optimize import cone_of_influence, simplify, strash
from repro.sim import Simulator

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import random_cell_circuit, random_stimulus  # noqa: E402


def _same_outputs(circ, opt, stimulus):
    s1, s2 = Simulator(circ), Simulator(opt)
    for frame in stimulus:
        o1, o2 = s1.step(frame), s2.step(frame)
        assert o1 == o2


class TestSimplify:
    @pytest.mark.parametrize("seed", range(10))
    def test_semantics_preserved(self, seed):
        circ = random_cell_circuit(seed)
        _same_outputs(circ, simplify(circ), random_stimulus(seed, 8))

    @pytest.mark.parametrize("seed", range(5))
    def test_gate_level_semantics_preserved(self, seed):
        low = lower_to_gates(random_cell_circuit(seed)).circuit
        opt = simplify(low)
        stim_names = [s.name for s in low.inputs]
        import random as _r

        rng = _r.Random(seed)
        stim = [{n: rng.randrange(2) for n in stim_names} for _ in range(8)]
        _same_outputs(low, opt, stim)

    def test_constant_folding(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        zero = b.const(0, 4)
        b.output("o", (a & zero) | (a ^ a))  # always 0
        opt = simplify(b.build())
        # Everything folds to a constant: at most a const cell + output BUF.
        assert len(opt.cells) <= 2
        assert Simulator(opt).step({"a": 9})["o"] == 0

    def test_identity_elimination(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        ones = b.const(0xF, 4)
        b.output("o", (a & ones) | b.const(0, 4))
        opt = simplify(b.build())
        assert Simulator(opt).step({"a": 9})["o"] == 9
        assert len(opt.cells) <= 2

    def test_mux_constant_selector(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        c = b.input("c", 4)
        b.output("o", b.mux(b.const(1, 1), a, c))
        opt = simplify(b.build())
        assert Simulator(opt).step({"a": 3, "c": 9})["o"] == 3

    def test_mux_equal_arms(self):
        b = ModuleBuilder("t")
        s = b.input("s", 1)
        a = b.input("a", 4)
        b.output("o", b.mux(s, a, a))
        opt = simplify(b.build())
        out = Simulator(opt).step({"s": 0, "a": 7})
        assert out["o"] == 7

    def test_cse_merges_duplicates(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        c = b.input("c", 4)
        x = a + c
        y = a + c  # structurally identical
        b.output("o", x ^ y)  # == 0
        opt = simplify(b.build())
        assert Simulator(opt).step({"a": 5, "c": 9})["o"] == 0

    def test_dead_code_removed(self):
        b = ModuleBuilder("t")
        a = b.input("a", 8)
        _dead = (a + 1) * 1 if False else (a + 1)  # unused value
        for _ in range(5):
            _dead = _dead ^ a
        b.output("o", a)
        opt = simplify(b.build())
        assert len(opt.cells) <= 1  # only the output BUF can remain

    def test_interface_preserved(self):
        circ = random_cell_circuit(3)
        opt = simplify(circ)
        assert {s.name for s in opt.inputs} == {s.name for s in circ.inputs}
        assert {s.name for s in opt.outputs} == {s.name for s in circ.outputs}
        assert {r.q.name for r in opt.registers} == {r.q.name for r in circ.registers}

    def test_registers_keep_resets(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 4, reset=9)
        r.drive(r)
        opt = simplify(b.build())
        assert opt.registers[0].reset_value == 9

    def test_xor_self_cancels(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        b.output("o", a ^ a)
        opt = simplify(b.build())
        assert Simulator(opt).step({"a": 11})["o"] == 0

    def test_shrinks_instrumented_designs(self):
        from repro.taint import TaintSources, cellift_scheme, instrument

        circ = random_cell_circuit(4)
        design = instrument(circ, cellift_scheme(), TaintSources(registers={"secret": -1}))
        low = lower_to_gates(design.circuit).circuit
        opt = simplify(low)
        assert len(opt.cells) < len(low.cells)


class TestConeOfInfluence:
    def _split_circuit(self):
        """Two independent halves: a counter cone and a shifter cone."""
        b = ModuleBuilder("split")
        inc = b.input("inc", 1)
        data = b.input("data", 4)
        count = b.reg("count", 4)
        count.drive(count + inc.zext(4))
        shift = b.reg("shift", 4)
        shift.drive(shift << 1 ^ data)
        b.output("count_out", count)
        b.output("shift_out", shift)
        return b.build()

    def test_prunes_logic_outside_cone(self):
        circ = lower_to_gates(self._split_circuit()).circuit
        root_bits = [s.name for s in circ.outputs if s.name.startswith("count_out")]
        coi = cone_of_influence(circ, root_bits)
        assert len(coi.cells) < len(circ.cells)
        # The shifter's registers are not in the counter's cone.
        kept_regs = {r.q.name for r in coi.registers}
        assert not any(name.startswith("shift") for name in kept_regs)

    def test_keeps_all_inputs(self):
        """Inputs survive even outside the cone (cex interface)."""
        circ = lower_to_gates(self._split_circuit()).circuit
        root_bits = [s.name for s in circ.outputs if s.name.startswith("count_out")]
        coi = cone_of_influence(circ, root_bits)
        assert {s.name for s in coi.inputs} == {s.name for s in circ.inputs}

    def test_closed_under_registers(self):
        """Reaching a register q must pull in its next-state cone."""
        b = ModuleBuilder("chain")
        x = b.input("x", 1)
        first = b.reg("first", 1)
        second = b.reg("second", 1)
        first.drive(x)
        second.drive(first)
        b.output("o", second)
        circ = lower_to_gates(b.build()).circuit
        roots = [s.name for s in circ.outputs]
        coi = cone_of_influence(circ, roots)
        assert {r.q.name for r in coi.registers} == \
            {r.q.name for r in circ.registers}

    @pytest.mark.parametrize("seed", range(5))
    def test_cone_semantics_preserved(self, seed):
        """Signals inside the cone behave identically after pruning."""
        circ = lower_to_gates(random_cell_circuit(seed)).circuit
        roots = [s.name for s in circ.outputs]
        coi = cone_of_influence(circ, roots)
        import random as _r

        rng = _r.Random(seed)
        names = [s.name for s in circ.inputs]
        stim = [{n: rng.randrange(2) for n in names} for _ in range(8)]
        _same_outputs(circ, coi, stim)


class TestStrash:
    def test_merges_duplicate_gates(self):
        b = ModuleBuilder("dup")
        x = b.input("x", 1)
        y = b.input("y", 1)
        b.output("o1", x & y)
        b.output("o2", y & x)  # same gate, operands swapped
        st = strash(lower_to_gates(b.build()).circuit)
        and_cells = [c for c in st.cells if c.op.value == "and"]
        assert len(and_cells) == 1

    def test_folds_buffer_chains_into_phase(self):
        b = ModuleBuilder("phase")
        x = b.input("x", 1)
        y = b.input("y", 1)
        b.output("o1", ~(~x & ~y))
        b.output("o2", ~(~x & ~y))
        st = strash(lower_to_gates(b.build()).circuit)
        and_cells = [c for c in st.cells if c.op.value == "and"]
        assert len(and_cells) == 1

    def test_xor_duplicate_operands_cancel(self):
        from repro.hdl.cells import Cell, CellOp
        from repro.hdl.circuit import Circuit
        from repro.hdl.signals import Signal, SignalKind

        circ = Circuit("xc")
        x = circ.add_signal(Signal("x", 1, SignalKind.INPUT))
        y = circ.add_signal(Signal("y", 1, SignalKind.INPUT))
        o = Signal("o", 1, SignalKind.OUTPUT)
        circ.add_cell(Cell(CellOp.XOR, o, (x, y, x)))  # == y
        circ.validate()
        st = strash(circ)
        assert not [c for c in st.cells if c.op is CellOp.XOR]
        import random as _r

        rng = _r.Random(0)
        stim = [{"x": rng.randrange(2), "y": rng.randrange(2)}
                for _ in range(8)]
        _same_outputs(circ, st, stim)

    @pytest.mark.parametrize("seed", range(8))
    def test_semantics_preserved(self, seed):
        circ = lower_to_gates(random_cell_circuit(seed)).circuit
        st = strash(circ)
        import random as _r

        rng = _r.Random(seed)
        names = [s.name for s in circ.inputs]
        stim = [{n: rng.randrange(2) for n in names} for _ in range(8)]
        _same_outputs(circ, st, stim)

    def test_interface_preserved(self):
        circ = lower_to_gates(random_cell_circuit(2)).circuit
        st = strash(circ)
        assert {s.name for s in st.inputs} == {s.name for s in circ.inputs}
        assert {s.name for s in st.outputs} == {s.name for s in circ.outputs}
        assert {r.q.name for r in st.registers} == \
            {r.q.name for r in circ.registers}

    def test_shrinks_shadow_logic(self):
        """Taint instrumentation duplicates host cones; strash merges
        the shared structure back."""
        from repro.taint import TaintSources, cellift_scheme, instrument

        circ = random_cell_circuit(4)
        design = instrument(circ, cellift_scheme(),
                            TaintSources(registers={"secret": -1}))
        low = simplify(lower_to_gates(design.circuit).circuit)
        st = strash(low)
        assert len(st.cells) <= len(low.cells)


class TestPipelineEntryPoints:
    """The SAT netlist pipeline runs through the names a tracer wraps.

    perfbench times ``repro.formal.bmc.lower_to_gates`` and
    ``repro.hdl.optimize.simplify``/``cone_of_influence``/``strash`` from
    outside; time spent outside those calls is unattributed.  The SAT
    path lowers hashed, through the ``bmc.lower_to_gates`` binding, and
    cuts the property's cone: ``simplify`` and ``strash`` are the
    reference the hashed lowering is tested against, not part of it.
    """

    def test_each_pass_once_and_one_check_at_compile(self, monkeypatch):
        from repro.bench.fuzz import random_machine
        from repro.formal import bmc
        from repro.formal.frameprog import frame_program_for
        from repro.formal.properties import SafetyProperty
        from repro.hdl import optimize
        from repro.hdl.circuit import Circuit
        from repro.hdl.netlist import Netlist

        machine = random_machine(7)  # building it validates it
        calls, active, built, validated, checked = [], [], [], [], []

        def wrap(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                active.append(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    active.pop()
                calls.append((name, args, kwargs, result))
                return result
            monkeypatch.setattr(module, name, wrapper)

        wrap(bmc, "lower_to_gates")
        for name in ("simplify", "cone_of_influence", "strash"):
            wrap(optimize, name)
        original_init = Circuit.__init__
        original_validate = Circuit.validate
        original_check = Netlist.checked_order

        def init(circuit, name):
            built.append(name)
            original_init(circuit, name)

        def validate(circuit):
            validated.append(circuit.name)
            return original_validate(circuit)

        def check(netlist):
            checked.append(netlist)
            return original_check(netlist)
        monkeypatch.setattr(Circuit, "__init__", init)
        monkeypatch.setattr(Circuit, "validate", validate)
        monkeypatch.setattr(Netlist, "checked_order", check)
        monkeypatch.setattr(bmc, "_LOWERED_CACHE", type(bmc._LOWERED_CACHE)())

        lowered = bmc._as_lowered(machine, SafetyProperty("p", "bad"))

        assert [call[0] for call in calls] == ["lower_to_gates", "cone_of_influence"]
        (_, args, kwargs, hashed), (_, cone_args, _, reduced) = calls
        assert args == (machine,) and kwargs == {"hashed": True}
        assert cone_args[0] is hashed.netlist
        assert len(hashed.netlist.cells) >= len(reduced.cells) > 0
        assert reduced is lowered.netlist
        # No intermediate un-hashed netlist: no BUF, and no gate whose
        # operand is a constant.
        ops = {cell[0] for cell in hashed.netlist.cells}
        assert "buf" not in ops
        consts = {cell[1] for cell in hashed.netlist.cells if cell[0] == "const"}
        assert not any(set(cell[2]) & consts for cell in hashed.netlist.cells)
        assert built == [] and validated == [] and checked == []

        frame_program_for(lowered)
        frame_program_for(lowered)
        assert checked == [lowered.netlist]
        assert built == [] and validated == []
        # A circuit read afterwards starts validated: no second check.
        assert lowered.circuit.topo_cells()
        lowered.circuit.validate()
        assert checked == [lowered.netlist]
        assert validated == [lowered.circuit.name]

    def test_circuit_read_first_shares_the_compile_check(self, monkeypatch):
        """PDR or a certificate may read ``.circuit`` before BMC compiles."""
        from repro.bench.fuzz import random_machine
        from repro.formal import bmc
        from repro.formal.frameprog import frame_program_for
        from repro.formal.properties import SafetyProperty
        from repro.hdl.netlist import Netlist

        machine = random_machine(7)
        checked = []
        original_check = Netlist.checked_order

        def check(netlist):
            checked.append(netlist)
            return original_check(netlist)
        monkeypatch.setattr(Netlist, "checked_order", check)
        monkeypatch.setattr(bmc, "_LOWERED_CACHE", type(bmc._LOWERED_CACHE)())

        lowered = bmc._as_lowered(machine, SafetyProperty("p", "bad"))
        assert lowered.circuit.topo_cells()
        assert checked == [lowered.netlist]
        frame_program_for(lowered)
        assert checked == [lowered.netlist]


class TestNetlist:
    """The flat netlist is the same circuit, in the same orders."""

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_topological_order(self, seed):
        from repro.formal.cache import circuit_fingerprint
        from repro.hdl.netlist import Netlist

        for circ in (random_cell_circuit(seed),
                     lower_to_gates(random_cell_circuit(seed)).circuit):
            net = Netlist.from_circuit(circ)
            back = net.to_circuit()
            assert circuit_fingerprint(back) == circuit_fingerprint(circ)
            assert [s.name for s in back.inputs] == [s.name for s in circ.inputs]
            assert [s.name for s in back.outputs] == [s.name for s in circ.outputs]
            assert [c[1] for c in net.topo_cells()] == \
                [c.out.name for c in circ.topo_cells()]

    def test_loop_is_reported(self):
        from repro.hdl.circuit import CombinationalLoopError
        from repro.hdl.netlist import Netlist

        net = Netlist("loop")
        net.signals = {"a": (1, "wire", ""), "b": (1, "wire", "")}
        net.cells = [("not", "a", ("b",), (), ""), ("not", "b", ("a",), (), "")]
        with pytest.raises(CombinationalLoopError, match="'a', 'b'"):
            net.topo_cells()

    def test_lowering_builds_its_circuit_on_demand(self):
        lowered = lower_to_gates(random_cell_circuit(0))
        assert lowered._circuit is None
        assert len(lowered.circuit.cells) == len(lowered.netlist.cells)
        assert lowered.circuit is lowered.circuit
