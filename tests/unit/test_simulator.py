import pytest

from repro.hdl import ModuleBuilder
from repro.sim import Simulator
from repro.sim.simulator import SimulationError

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import ReferenceSimulator, random_cell_circuit, random_stimulus  # noqa: E402


def _counter():
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    c = b.reg("c", 4)
    c.drive(c + 1, en=en)
    b.output("o", c)
    return b.build()


class TestSimulator:
    def test_reset_values(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 8, reset=42)
        r.drive(r)
        b.output("o", r)
        sim = Simulator(b.build())
        assert sim.step({})["o"] == 42

    def test_initial_state_override(self):
        b = ModuleBuilder("t")
        r = b.reg("r", 8, reset=42)
        r.drive(r)
        b.output("o", r)
        sim = Simulator(b.build(), initial_state={"r": 7})
        assert sim.step({})["o"] == 7

    def test_step_sequences_registers(self):
        sim = Simulator(_counter())
        values = [sim.step({"en": 1})["o"] for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_enable_holds(self):
        sim = Simulator(_counter())
        sim.step({"en": 1})
        sim.step({"en": 0})
        assert sim.step({"en": 1})["o"] == 1
        assert sim.step({"en": 0})["o"] == 2

    def test_missing_input_rejected(self):
        sim = Simulator(_counter())
        with pytest.raises(SimulationError):
            sim.step({})

    def test_out_of_range_input_rejected(self):
        sim = Simulator(_counter())
        with pytest.raises(SimulationError):
            sim.step({"en": 2})

    def test_peek_internal_signal(self):
        b = ModuleBuilder("t")
        a = b.input("a", 4)
        x = b.named("x", a + 1)
        b.output("o", x)
        sim = Simulator(b.build())
        sim.step({"a": 8})
        assert sim.peek("x") == 9

    def test_reset_restarts(self):
        sim = Simulator(_counter())
        for _ in range(3):
            sim.step({"en": 1})
        sim.reset()
        assert sim.cycle == 0
        assert sim.step({"en": 1})["o"] == 0

    def test_state_snapshot(self):
        sim = Simulator(_counter())
        sim.step({"en": 1})
        sim.step({"en": 1})
        assert sim.state() == {"c": 2}


class TestBatchSingleLane:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_interpreter(self, seed):
        """A simulator reused after an earlier run steps like the
        ``evaluate_cell`` reference interpreter."""
        circ = random_cell_circuit(seed)
        sim = Simulator(circ)
        sim.run(random_stimulus(seed, 5))
        sim.reset({})
        interp = ReferenceSimulator(circ)
        for frame in random_stimulus(seed + 7, 12):
            outputs, _ = interp.step(frame)
            assert sim.step(frame) == outputs
        assert sim.state() == interp.state()


class TestRunAndWaveform:
    def test_run_records_pre_edge_values(self):
        sim = Simulator(_counter())
        wf = sim.run([{"en": 1}] * 4, record=["c", "o"])
        assert wf.trace("c") == [0, 1, 2, 3]
        assert wf.length == 4

    def test_run_records_all_signals_by_default(self):
        circ = _counter()
        wf = Simulator(circ).run([{"en": 1}])
        for name in circ.signals:
            assert wf.has_signal(name)
