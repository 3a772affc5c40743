"""Frame compilation: structure and interpretation.

The differential suite (tests/property/test_engine_differential.py)
checks interpreted and reference encodings equisatisfiable on fuzzed
machines; these tests pin down the compiled artifact itself on small
hand-built circuits.
"""

import os
import sys

import pytest

from repro.hdl import ModuleBuilder, lower_to_gates
from repro.formal.frameprog import (
    compile_frame_program,
    execute_ops,
    frame_program_for,
)
from repro.formal.sat.solver import SolveStatus, Solver
from repro.formal.unroll import Unroller

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import ReferenceUnroller  # noqa: E402


def _counter_circuit(width=3):
    """A counter incremented by an input bit each cycle."""
    b = ModuleBuilder("ctr")
    inc = b.input("inc", 1)
    count = b.reg("count", width)
    count.drive(count + inc.zext(width))
    b.output("out", count)
    return b.build()


def _lowered(circuit):
    return lower_to_gates(circuit)


class TestCompile:
    def test_boundary_matches_registers(self):
        lowered = _lowered(_counter_circuit())
        prog = compile_frame_program(lowered)
        registers = lowered.circuit.registers
        inputs = lowered.circuit.inputs
        assert len(prog.boundary_slots) == len(registers)
        assert len(prog.input_slots) == len(inputs)
        assert [prog.slot_of_name[reg.q.name] for reg in registers] == \
            list(prog.boundary_slots)
        assert [prog.slot_of_name[sig.name] for sig in inputs] == \
            list(prog.input_slots)

    def test_every_signal_has_slot_and_tval(self):
        """Every signal has its own slot, and interpreting the program
        gives every slot a literal."""
        lowered = _lowered(_counter_circuit())
        prog = compile_frame_program(lowered)
        assert set(prog.slot_of_name) == set(lowered.circuit.signals)
        assert sorted(prog.slot_of_name.values()) == list(range(prog.n_slots))
        solver = Solver()
        true_lit = solver.new_var()
        boundary = [solver.new_var() for _ in prog.boundary_slots]
        inputs = [solver.new_var() for _ in prog.input_slots]
        frame = execute_ops(prog, solver, true_lit, boundary, inputs)
        assert all(frame.vals)

    def test_memoized_per_lowered_circuit(self):
        lowered = _lowered(_counter_circuit())
        assert frame_program_for(lowered) is frame_program_for(lowered)


class TestStampedVsReference:
    """Unrolled frames against the ``FrameEncoder`` reference unrolling."""

    def test_symbolic_frames_identical_cnf_size(self):
        """With a fully symbolic boundary the unrolling must allocate
        exactly the variables and clauses of the reference."""
        lowered = _lowered(_counter_circuit())
        ref = ReferenceUnroller(lowered, symbolic_all=True)
        fast = Unroller(lowered, symbolic_all=True)
        for _ in range(4):
            ref.add_frame()
            fast.add_frame()
        assert fast.solver.num_vars == ref.solver.num_vars
        assert fast.solver.num_clauses == ref.solver.num_clauses

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_equisatisfiable_reachability(self, symbolic):
        """Reachability of each counter value agrees frame by frame."""
        lowered = _lowered(_counter_circuit(width=2))
        ref = ReferenceUnroller(lowered, symbolic_all=symbolic)
        fast = Unroller(lowered, symbolic_all=symbolic)
        for _ in range(4):
            ref.add_frame()
            fast.add_frame()
        for frame in range(4):
            for value in range(4):
                verdicts = []
                for unr in (ref, fast):
                    lits = [
                        lit if (value >> bit) & 1 else -lit
                        for bit in range(2)
                        for lit in (unr.lit_of_bit(frame, "count", bit),)
                    ]
                    verdicts.append(unr.solver.solve(assumptions=lits).status)
                assert verdicts[0] == verdicts[1], (frame, value, verdicts)


class TestInterpretedConstants:
    def test_concrete_reset_folds_like_reference(self):
        """Under a concrete reset, frame-0 logic folds to constants —
        the interpreted frame must not allocate spurious vars."""
        lowered = _lowered(_counter_circuit())
        ref = ReferenceUnroller(lowered)
        fast = Unroller(lowered)
        ref.add_frame()
        fast.add_frame()
        assert fast.solver.num_vars == ref.solver.num_vars
        assert fast.solver.num_clauses == ref.solver.num_clauses

    def test_word_values_match_under_reset(self):
        lowered = _lowered(_counter_circuit(width=2))
        fast = Unroller(lowered)
        for _ in range(3):
            fast.add_frame()
        # Pin inc=1 in every frame: the counter must take values 0,1,2.
        for frame in range(3):
            fast.constrain_word(frame, "inc", 1)
        result = fast.solver.solve()
        assert result.status is SolveStatus.SAT
        for frame, expected in enumerate((0, 1, 2)):
            assert fast.word_value(frame, "count", result.model) == expected
