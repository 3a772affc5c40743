"""Frame-template compilation: structure, stamping and interpretation.

The differential suite (tests/property/test_engine_differential.py)
checks stamped and reference encodings equisatisfiable on fuzzed
machines; these tests pin down the compiled artifact itself on small
hand-built circuits.
"""

import pytest

from repro.hdl import ModuleBuilder, lower_to_gates
from repro.formal.frameprog import (
    compile_frame_program,
    frame_program_for,
)
from repro.formal.sat.solver import SolveStatus, Solver
from repro.formal.unroll import Unroller


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
        n_boundary = prog.template().n_boundary
        assert n_boundary == len(lowered.circuit.registers)
        assert len(prog.boundary_slots) == n_boundary
        assert len(prog.input_slots) == len(lowered.circuit.inputs)

    def test_every_signal_has_slot_and_tval(self):
        lowered = _lowered(_counter_circuit())
        prog = compile_frame_program(lowered)
        tvals = prog.template().tvals
        for name in lowered.circuit.signals:
            assert name in prog.slot_of_name
            assert tvals[prog.slot_of_name[name]] != 0

    def test_pure_template_is_wellformed(self):
        """Pure clauses are flat size-prefixed runs of fresh-slot lits."""
        lowered = _lowered(_counter_circuit())
        template = compile_frame_program(lowered).template()
        i = 0
        while i < len(template.pure):
            size = template.pure[i]
            assert size >= 2
            for lit in template.pure[i + 1: i + 1 + size]:
                slot = lit >> 1
                assert 0 <= slot < template.n_fresh
            i += 1 + size
        assert template.num_clauses >= len(template.mixed)

    def test_memoized_per_lowered_circuit(self):
        lowered = _lowered(_counter_circuit())
        assert frame_program_for(lowered) is frame_program_for(lowered)


class TestTemplateLaziness:
    """The clause template is recorded only when a frame is stamped."""

    @staticmethod
    def _count_records(monkeypatch):
        from repro.formal import frameprog

        calls = []
        original = frameprog.record_template

        def record(program):
            calls.append(program)
            return original(program)
        monkeypatch.setattr(frameprog, "record_template", record)
        return calls

    def test_concrete_reset_bmc_builds_no_template(self, monkeypatch):
        """Count bit ``k`` folds to a constant until frame ``k + 1``,
        so through bound 6 every frame of the 8-bit counter has a
        constant on its boundary: all are interpreted, none stamped."""
        from repro.formal import SafetyProperty, bounded_model_check

        calls = self._count_records(monkeypatch)
        b = ModuleBuilder("ctr")
        inc = b.input("inc", 1)
        count = b.reg("count", 8)
        count.drive(count + inc.zext(8))
        b.output("bad", count.eq(255))
        result = bounded_model_check(b.build(), SafetyProperty("p", "bad"), 6)
        assert not result.found_cex
        assert calls == []

    def test_symbolic_unrolling_records_once(self, monkeypatch):
        calls = self._count_records(monkeypatch)
        lowered = _lowered(_counter_circuit())
        unroller = Unroller(lowered, symbolic_all=True)
        for _ in range(3):
            unroller.add_frame()
        assert calls == [frame_program_for(lowered)]
        templates = {id(frame.template) for frame in unroller.frames}
        assert templates == {id(frame_program_for(lowered).template())}


class TestStampedVsReference:
    def test_symbolic_frames_identical_cnf_size(self):
        """With a fully symbolic boundary the stamped unrolling must
        allocate exactly the variables and clauses of the reference."""
        lowered = _lowered(_counter_circuit())
        ref = Unroller(lowered, symbolic_all=True, use_templates=False)
        fast = Unroller(lowered, symbolic_all=True, use_templates=True)
        for _ in range(4):
            ref.add_frame()
            fast.add_frame()
        assert fast.solver.num_vars == ref.solver.num_vars
        assert fast.solver.num_clauses == ref.solver.num_clauses

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_equisatisfiable_reachability(self, symbolic):
        """Reachability of each counter value agrees frame by frame."""
        lowered = _lowered(_counter_circuit(width=2))
        ref = Unroller(lowered, symbolic_all=symbolic, use_templates=False)
        fast = Unroller(lowered, symbolic_all=symbolic, use_templates=True)
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
        the interpreted stamping path must not allocate spurious vars."""
        lowered = _lowered(_counter_circuit())
        ref = Unroller(lowered, use_templates=False)
        fast = Unroller(lowered, use_templates=True)
        ref.add_frame()
        fast.add_frame()
        assert fast.solver.num_vars == ref.solver.num_vars
        assert fast.solver.num_clauses == ref.solver.num_clauses

    def test_word_values_match_under_reset(self):
        lowered = _lowered(_counter_circuit(width=2))
        fast = Unroller(lowered, use_templates=True)
        for _ in range(3):
            fast.add_frame()
        # Pin inc=1 in every frame: the counter must take values 0,1,2.
        for frame in range(3):
            fast.constrain_word(frame, "inc", 1)
        result = fast.solver.solve()
        assert result.status is SolveStatus.SAT
        for frame, expected in enumerate((0, 1, 2)):
            assert fast.word_value(frame, "count", result.model) == expected


class TestStampClausesContract:
    def test_offsets_fresh_block(self):
        """stamp_clauses adds pre-encoded clauses relative to the block
        returned by new_vars, without normalisation."""
        solver = Solver()
        anchor = solver.new_var()
        solver.add_clause((anchor,))
        base = solver.new_vars(3)
        # (v0 | ~v1) and (v0 | v1 | v2) over the fresh block, in the
        # internal (slot << 1) | sign literal encoding.
        template = (2, 0 << 1, (1 << 1) | 1, 3, 0 << 1, 1 << 1, 2 << 1)
        solver.stamp_clauses(template, base)
        assert solver.num_clauses == 2
        res = solver.solve(assumptions=[-base])
        assert res.status is SolveStatus.SAT
        assert not res.lit_true(base + 1)  # ~v1 forced by (v0 | ~v1)
        assert res.lit_true(base + 2)      # v2 forced by (v0 | v1 | v2)
