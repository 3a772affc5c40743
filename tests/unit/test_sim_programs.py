"""The contract of the two simulators' op programs.

``Simulator`` translates its circuit into a word-level op program when
it is built; these tests pin what stays the same across that
translation: the error messages, what ``peek``/``snapshot``/``state``
show before and after an evaluation, ``record`` handling, and that a
simulator built after a circuit changed sees the change.  The last
class pins the batch engine's fixed-shape op tuples and the compiled
statements generated from them.
"""

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.cells import Cell, CellOp
from repro.hdl.signals import Signal, SignalKind
from repro.sim import Simulator, Waveform
from repro.sim.batch import (
    OP_AND, OP_AND2, OP_CONST0, OP_CONST1, OP_NOT, OP_OR, OP_OR2, OP_XNOR,
    OP_XNOR2, OP_XOR, OP_XOR2, _op_source, batch_program_for,
)
from repro.sim.simulator import SimulationError


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
        b = ModuleBuilder("ops")
        x = b.input("x", 3)
        y = b.input("y", 3)
        b.output("and", (x & y).redor())
        b.output("xnor", b.cat(b.const(1, 1), x).redxor())
        program = batch_program_for(b.build())
        assert program.ops
        for op in program.ops:
            assert len(op) == 5 and op[4] == 0

    @pytest.mark.parametrize("op, source", [
        ((OP_CONST0, 4, 0, 0, 0), "    p[4] = 0"),
        ((OP_CONST1, 4, 0, 0, 0), "    p[4] = M"),
        ((OP_NOT, 4, 2, 0, 0), "    p[4] = M ^ p[2]"),
        ((OP_AND2, 4, 2, 3, 0), "    p[4] = p[2] & p[3]"),
        ((OP_OR2, 4, 2, 3, 0), "    p[4] = p[2] | p[3]"),
        ((OP_XOR2, 4, 2, 3, 0), "    p[4] = p[2] ^ p[3]"),
        ((OP_XNOR2, 4, 2, 3, 0), "    p[4] = M ^ (p[2] ^ p[3])"),
        ((OP_AND, 5, (1, 2, 3), 0, 0), "    p[5] = p[1] & p[2] & p[3]"),
        ((OP_OR, 5, (1, 2, 3), 0, 0), "    p[5] = p[1] | p[2] | p[3]"),
        ((OP_XOR, 5, (1, 2, 3), 0, 0), "    p[5] = p[1] ^ p[2] ^ p[3]"),
        ((OP_XNOR, 5, (1, 2, 3), 0, 0), "    p[5] = M ^ (p[1] ^ p[2] ^ p[3])"),
    ])
    def test_compiled_statement_text(self, op, source):
        assert _op_source(op) == source
