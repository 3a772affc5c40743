"""Time-frame expansion of sequential circuits for SAT-based checking.

An :class:`Unroller` owns a solver and incrementally appends time
frames.  Register values flow between frames by literal aliasing (frame
``t+1``'s ``q`` literal *is* frame ``t``'s ``d`` literal), so the CNF
contains only real logic.

Every frame is encoded by interpreting the lowering's compiled
:class:`~repro.formal.frameprog.FrameProgram` (see
:mod:`repro.formal.frameprog`), with the constant folding that keeps a
frame under a concrete reset small.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.hdl.lowering import LoweredCircuit
from repro.formal.frameprog import InterpretedFrame, execute_ops, frame_program_for
from repro.formal.sat.solver import Solver


class Unroller:
    """Incremental unroller over a gate-level circuit.

    Args:
        lowered: the gate-level circuit with bit provenance.
        solver: the CDCL solver collecting clauses.
        initial_values: original-signal-name -> word value for the
            initial state of registers not listed as symbolic
            (defaults to each register's reset value).
        symbolic_registers: original register names whose initial
            values are free (universally quantified by the check).
        symbolic_all: make every register's initial value free.
    """

    def __init__(
        self,
        lowered: LoweredCircuit,
        solver: Optional[Solver] = None,
        initial_values: Optional[Mapping[str, int]] = None,
        symbolic_registers: Optional[Set[str]] = None,
        symbolic_all: bool = False,
    ) -> None:
        self.lowered = lowered
        self._inputs = lowered.input_names()
        #: ``(q, d, reset)`` per register, in the frame program's order.
        self._registers = lowered.register_entries()
        self.solver = solver or Solver()
        self.true_lit = self.solver.new_var()
        self.solver.add_clause((self.true_lit,))
        self.frames: List[InterpretedFrame] = []
        self._program = frame_program_for(lowered)
        self._initial_values = dict(initial_values or {})
        self._symbolic = set(symbolic_registers or ())
        self._symbolic_all = symbolic_all
        # Map gate-level register bit name -> (original name, bit index).
        self._orig_of_gate_reg: Dict[str, tuple] = {}
        for orig_name, bit_sigs in lowered.bits.items():
            for i, bit_sig in enumerate(bit_sigs):
                self._orig_of_gate_reg[bit_sig.name] = (orig_name, i)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of frames encoded so far."""
        return len(self.frames)

    def add_frame(self) -> InterpretedFrame:
        """Encode one more time frame and return it.

        The boundary literals are the initial state for frame 0 and the
        previous frame's register ``d`` literals after it; they are
        allocated before the frame's inputs.
        """
        previous = self.frames[-1] if self.frames else None
        if previous is None:
            boundary = [self._initial_lit(q, reset) for q, _d, reset in self._registers]
        else:
            boundary = [previous.lit(d) for _q, d, _reset in self._registers]
        solver = self.solver
        inputs = [solver.new_var() for _ in self._program.input_slots]
        frame = execute_ops(self._program, solver, self.true_lit, boundary, inputs)
        self.frames.append(frame)
        return frame

    def ensure_depth(self, depth: int) -> None:
        while self.depth < depth:
            self.add_frame()

    def _initial_lit(self, q: str, reset: int) -> int:
        orig_name, bit_index = self._orig_of_gate_reg.get(q, (q, 0))
        if self._symbolic_all or orig_name in self._symbolic or q in self._symbolic:
            return self.solver.new_var()
        if orig_name in self._initial_values:
            value = self._initial_values[orig_name]
            return self.true_lit if (value >> bit_index) & 1 else -self.true_lit
        return self.true_lit if reset & 1 else -self.true_lit

    # ------------------------------------------------------------------
    # convenience lookups on original (word-level) names
    # ------------------------------------------------------------------
    def lit_of_bit(self, frame_index: int, original_name: str, bit: int = 0) -> int:
        gate_sig = self.lowered.bits[original_name][bit]
        return self.frames[frame_index].lit(gate_sig.name)

    def word_value(self, frame_index: int, original_name: str, model) -> int:
        """Read a word-level value of a signal from a SAT model."""
        frame = self.frames[frame_index]
        pruned = self.lowered.pruned_resets
        value = 0
        for i, gate_sig in enumerate(self.lowered.bits[original_name]):
            if gate_sig.name in pruned:
                # The cone-of-influence reduction dropped this register
                # bit: the property cannot observe it, so the run's
                # value is its (initial-value-overridden) reset bit.
                if original_name in self._initial_values:
                    bit = (self._initial_values[original_name] >> i) & 1
                else:
                    bit = pruned[gate_sig.name]
                value |= bit << i
                continue
            lit = frame.lit(gate_sig.name)
            if lit == self.true_lit:
                bit = 1
            elif lit == -self.true_lit:
                bit = 0
            else:
                bit = 1 if (model[abs(lit)] ^ (lit < 0)) else 0
            value |= bit << i
        return value

    def assume_signal(self, frame_index: int, original_name: str, value: int = 1) -> None:
        """Permanently constrain a 1-bit original signal in a frame."""
        lit = self.lit_of_bit(frame_index, original_name)
        self.solver.add_clause((lit if value else -lit,))

    def constrain_word(self, frame_index: int, original_name: str, value: int) -> None:
        """Permanently pin a word-level signal to a concrete value."""
        for i, _ in enumerate(self.lowered.bits[original_name]):
            lit = self.lit_of_bit(frame_index, original_name, i)
            bit = (value >> i) & 1
            self.solver.add_clause((lit if bit else -lit,))

    def add_state_uniqueness(self, frame_a: int, frame_b: int) -> None:
        """Require the register states of two frames to differ.

        Used for simple-path constraints that make k-induction complete.
        """
        diff_lits: List[int] = []
        differs = False
        add = self.solver.add_clause
        for q, _d, _reset in self._registers:
            a = self.frames[frame_a].lit(q)
            b = self.frames[frame_b].lit(q)
            if a == -b:
                differs = True
            elif a != b:
                out = self.solver.new_var()  # out <-> a XOR b
                add((-out, a, b))
                add((-out, -a, -b))
                add((out, -a, b))
                add((out, a, -b))
                diff_lits.append(out)
        if not differs:
            add(tuple(diff_lits) if diff_lits else (-self.true_lit,))
