"""The contract of the simulator's op program.

``Simulator`` translates its circuit into a word-level op program when
it is built; these tests pin what stays the same across that
translation: the error messages, what ``peek``/``snapshot``/``state``
show before and after an evaluation, ``record`` handling, that a
simulator built after a circuit changed sees the change, and the fixed
shape of its ops and the word-level formulas of the bitwise ones.
"""

import random
import re

import pytest

from repro.hdl import ModuleBuilder
from repro.bench.fuzz import random_machine
from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit
from repro.hdl.signals import Signal, SignalKind
from repro.sim import Simulator, Waveform
from repro.sim.simulator import OP_CAT, SimulationError


def _counter():
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    c = b.reg("c", 4, reset=3)
    c.drive(c + 1, en=en)
    b.named("c_copy", c.zext(4))
    b.output("o", c)
    return b.build()


class TestErrorContract:
    def test_missing_input_message(self):
        with pytest.raises(SimulationError, match=r"^missing input 'en'$"):
            Simulator(_counter()).step({})

    @pytest.mark.parametrize("value", [2, -1])
    def test_out_of_range_input_message(self, value):
        with pytest.raises(SimulationError) as info:
            Simulator(_counter()).step({"en": value})
        assert str(info.value) == f"input 'en': value {value} exceeds width 1"

    def test_rejected_frame_changes_nothing(self):
        """Every input is checked before any is written: a rejected
        frame leaves the last evaluation's values and the cycle count."""
        b = ModuleBuilder("sum")
        a = b.input("a", 4)
        c = b.input("c", 4)
        b.output("o", a + c)
        sim = Simulator(b.build())
        sim.step({"a": 1, "c": 1})
        before = sim.snapshot()
        assert before["a"] == 1 and before["c"] == 1 and before["o"] == 2
        with pytest.raises(SimulationError, match=r"^missing input 'c'$"):
            sim.step({"a": 5})
        with pytest.raises(SimulationError, match=r"^input 'c': value 16 exceeds width 4$"):
            sim.step({"a": 5, "c": 16})
        assert sim.snapshot() == before and sim.cycle == 1
        assert sim.step({"a": 5, "c": 2}) == {"o": 7}

    def test_peek_before_evaluation(self):
        sim = Simulator(_counter())
        assert sim.peek("c") == 3
        with pytest.raises(SimulationError, match=r"^signal 'o' has no value yet$"):
            sim.peek("o")
        with pytest.raises(SimulationError, match="has no value yet"):
            sim.peek("no.such.signal")

    def test_reset_hides_combinational_values_again(self):
        sim = Simulator(_counter())
        sim.step({"en": 1})
        assert sim.peek("o") == 3
        sim.reset()
        with pytest.raises(SimulationError, match="has no value yet"):
            sim.peek("o")
        assert sim.snapshot() == {"c": 3}


class TestValues:
    def test_snapshot_and_state(self):
        circuit = _counter()
        sim = Simulator(circuit)
        assert sim.snapshot() == {"c": 3} == sim.state()
        sim.step({"en": 1})
        snapshot = sim.snapshot()
        assert set(snapshot) == set(circuit.signals)
        assert snapshot["c"] == 4 and snapshot["o"] == 3
        assert sim.state() == {"c": 4}

    def test_copy_of_a_register_keeps_its_evaluated_value(self):
        """After the clock edge, a combinational copy of a register still
        shows the value of the last evaluation, the register its new one."""
        sim = Simulator(_counter())
        sim.step({"en": 1})
        assert sim.peek("c") == 4
        assert sim.peek("c_copy") == 3

    def test_evaluate_and_clock_separately(self):
        sim = Simulator(_counter())
        sim._evaluate_comb({"en": 1})
        assert sim.peek("o") == 3
        sim._clock()
        assert sim.peek("c") == 4
        assert sim.peek("o") == 3

    def test_reset_without_argument_keeps_the_initial_state(self):
        sim = Simulator(_counter(), initial_state={"c": 9})
        sim.run([{"en": 1}] * 2)
        sim.reset()
        assert sim.state() == {"c": 9}
        sim.reset({})
        assert sim.state() == {"c": 3}

    def test_initial_state_is_masked_and_extra_names_ignored(self):
        sim = Simulator(_counter(), initial_state={"c": 0x1F, "nope": 1})
        assert sim.state() == {"c": 0xF}


class TestRecord:
    def test_unknown_record_name_raises_key_error(self):
        with pytest.raises(KeyError):
            Simulator(_counter()).run([{"en": 1}], record=["o", "no.such.signal"])

    def test_unknown_name_with_no_stimulus_records_nothing(self):
        wave = Simulator(_counter()).run([], record=["no.such.signal"])
        assert wave.length == 0 and wave.trace("no.such.signal") == []

    def test_record_subset_and_order(self):
        wave = Simulator(_counter()).run([{"en": 1}, {"en": 0}, {"en": 1}],
                                         record=["o", "c_copy"])
        assert wave.signal_names == ["o", "c_copy"]
        assert wave.trace("o") == [3, 4, 4]
        assert wave.trace("c_copy") == [3, 4, 4]

    def test_run_leaves_the_simulator_clocked(self):
        sim = Simulator(_counter())
        sim.run([{"en": 1}] * 3)
        assert sim.cycle == 3
        assert sim.state() == {"c": 6}

    def test_waveform_from_frames(self):
        wave = Waveform.from_frames(["a", "b", "a2"], [1, 0, 1],
                                    [[5, 6], [7, 8]])
        assert wave.length == 2
        assert wave.trace("a") == [6, 8] == wave.trace("a2")
        assert wave.trace("b") == [5, 7]
        wave.record({"a": 1, "b": 2, "a2": 1})
        assert wave.trace("b") == [5, 7, 2]


class TestCircuitChanges:
    def test_simulator_built_after_add_cell_sees_the_new_cell(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        b.output("o", a + 1)
        circuit = b.build()
        assert Simulator(circuit).step({"a": 2}) == {"o": 3}
        extra = Signal("o2", 4, SignalKind.OUTPUT)
        circuit.add_cell(Cell(CellOp.NOT, extra, (circuit.signal("a"),)))
        sim = Simulator(circuit)
        assert sim.step({"a": 2}) == {"o": 3, "o2": 13}
        assert sim.peek("o2") == 13


class TestBatchOpShape:
    def test_every_op_has_one_shape(self):
        """Every op is one ``(code, out, a, b, c)`` tuple, with a known
        opcode, and each op writes its own slot, in topological order."""
        b = ModuleBuilder("ops")
        x = b.input("x", 3)
        y = b.input("y", 3)
        b.output("and", (x & y).redor())
        b.output("xnor", b.cat(b.const(1, 1), x).redxor())
        for circuit in (b.build(), random_machine(4, width=6, max_ops=30)):
            ops = Simulator(circuit)._ops
            assert ops
            for op in ops:
                assert len(op) == 5 and op[0] in range(OP_CAT + 1)
            outs = [op[1] for op in ops]
            assert outs == sorted(set(outs))

    @pytest.mark.parametrize("op, source", [
        ((CellOp.CONST, 0), "    p[4] = 0"),
        ((CellOp.CONST, -1), "    p[4] = M"),
        ((CellOp.NOT,), "    p[4] = M ^ p[2]"),
        ((CellOp.AND,), "    p[4] = p[2] & p[3]"),
        ((CellOp.OR,), "    p[4] = p[2] | p[3]"),
        ((CellOp.XOR,), "    p[4] = p[2] ^ p[3]"),
        ((CellOp.XOR, CellOp.NOT), "    p[4] = M ^ (p[2] ^ p[3])"),
        ((CellOp.AND,), "    p[5] = p[1] & p[2] & p[3]"),
        ((CellOp.OR,), "    p[5] = p[1] | p[2] | p[3]"),
        ((CellOp.XOR,), "    p[5] = p[1] ^ p[2] ^ p[3]"),
        ((CellOp.XOR, CellOp.NOT), "    p[5] = M ^ (p[1] ^ p[2] ^ p[3])"),
    ])
    def test_compiled_statement_text(self, op, source):
        """The cells ``op`` (a CONST with its value, or ops applied in
        turn to the slots ``source`` reads) compute the bitwise statement
        ``source`` on whole words: ``p`` is the slot list and ``M`` the
        output mask, at every width, beyond 64 bits too."""
        target, expr = source.strip().split(" = ")
        slots = [int(k) for k in re.findall(r"p\[(\d+)\]", expr)]
        rng = random.Random(source)
        for width in (1, 3, 64, 70):
            mask = (1 << width) - 1
            circuit = Circuit("stmt")
            ins = [circuit.add_signal(Signal(f"p{k}", width, SignalKind.INPUT))
                   for k in slots]
            if op[0] is CellOp.CONST:
                cells = [(CellOp.CONST, (), (("value", op[1] & mask),))]
            else:
                cells = [(op[0], tuple(ins), ())]
                cells += [(unary, None, ()) for unary in op[1:]]
            for n, (cell_op, cell_ins, params) in enumerate(cells):
                last = n == len(cells) - 1
                out = Signal(target if last else f"t{n}", width,
                             SignalKind.OUTPUT if last else SignalKind.WIRE)
                if cell_ins is None:
                    cell_ins = (circuit.signal(f"t{n - 1}"),)
                circuit.add_cell(Cell(cell_op, out, cell_ins, params))
            sim = Simulator(circuit)
            for _ in range(8):
                p = {k: rng.getrandbits(width) for k in slots}
                expected = eval(expr, {"p": p, "M": mask})
                assert sim.step({f"p{k}": p[k] for k in slots}) == {target: expected}
