"""Time-frame expansion of sequential circuits for SAT-based checking.

An :class:`Unroller` owns a solver and incrementally appends time
frames.  Register values flow between frames by literal aliasing (frame
``t+1``'s ``q`` literal *is* frame ``t``'s ``d`` literal), so the CNF
contains only real logic.

By default frames come from a compiled
:class:`~repro.formal.frameprog.FrameProgram`: a frame whose boundary
still carries constants is encoded by interpreting its op program, and
a fully symbolic one is *stamped* from the clause template that the
interpreter records the first time it is needed, by offsetting
variable indices (see :mod:`repro.formal.frameprog`).  Pass
``use_templates=False`` to re-encode every frame through the reference
:class:`FrameEncoder`; the property suite runs both paths and checks
them equisatisfiable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Union

from repro.hdl.lowering import LoweredCircuit
from repro.formal.encode import FrameEncoder
from repro.formal.frameprog import (
    InterpretedFrame,
    StampedFrame,
    execute_ops,
    frame_program_for,
)
from repro.formal.sat.solver import Solver

#: All frame kinds expose ``lit(name)`` / ``const_lit(value)`` / ``true_lit``.
Frame = Union[FrameEncoder, StampedFrame, InterpretedFrame]


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
        use_templates: stamp frames from a compiled frame program
            (default) instead of re-encoding via ``FrameEncoder``.
    """

    def __init__(
        self,
        lowered: LoweredCircuit,
        solver: Optional[Solver] = None,
        initial_values: Optional[Mapping[str, int]] = None,
        symbolic_registers: Optional[Set[str]] = None,
        symbolic_all: bool = False,
        use_templates: bool = True,
    ) -> None:
        self.lowered = lowered
        self._inputs = lowered.input_names()
        #: ``(q, d, reset)`` per register, in the frame program's order.
        self._registers = lowered.register_entries()
        self.solver = solver or Solver()
        self.true_lit = self.solver.new_var()
        self.solver.add_clause((self.true_lit,))
        self.frames: List[Frame] = []
        self._use_templates = use_templates
        self._program = frame_program_for(lowered) if use_templates else None
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

    def add_frame(self) -> Frame:
        """Encode one more time frame and return its encoder."""
        if self._program is not None:
            return self._stamp_frame()
        frame = FrameEncoder(self.solver, self.true_lit)
        previous = self.frames[-1] if self.frames else None
        for name in self._inputs:
            frame.fresh(name)
        for q, d, reset in self._registers:
            if previous is None:
                frame.define(q, self._initial_lit(q, reset))
            else:
                frame.define(q, previous.lit(d))
        frame.encode_combinational(self.lowered.circuit)
        self.frames.append(frame)
        return frame

    def _stamp_frame(self) -> Frame:
        """Add one frame from the compiled program.

        While any boundary literal is still a constant — frame 0 under
        a concrete reset, and succeeding frames for as long as constant
        register values keep propagating — the op program is
        *interpreted* so the encoder's constant folding fires exactly
        as in the reference path.  Once the boundary is fully symbolic
        (always, for a free initial state) folding cannot trigger and
        the pre-folded template, recorded on the program's first stamp,
        is stamped by index offsetting.
        """
        program = self._program
        solver = self.solver
        true_lit = self.true_lit
        previous = self.frames[-1] if self.frames else None
        if previous is None:
            boundary = [self._initial_lit(q, reset) for q, _d, reset in self._registers]
        else:
            boundary = [previous.lit(d) for _q, d, _reset in self._registers]
        if any(lit == true_lit or lit == -true_lit for lit in boundary):
            inputs = [solver.new_var() for _ in program.input_slots]
            frame: Frame = execute_ops(program, solver, true_lit, boundary, inputs)
        else:
            base = solver.num_vars + 1
            frame = StampedFrame(program, true_lit, boundary, base)
            template = frame.template
            solver.new_vars(template.n_fresh)
            if template.pure:
                solver.stamp_clauses(template.pure, base)
            resolve = frame.resolve
            add = solver.add_clause
            for clause in template.mixed:
                add([resolve(tv) for tv in clause])
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
        encoder = FrameEncoder(self.solver, self.true_lit)
        for q, _d, _reset in self._registers:
            la = self.frames[frame_a].lit(q)
            lb = self.frames[frame_b].lit(q)
            diff_lits.append(encoder._xor2(la, lb))
        live = [l for l in diff_lits if l != -self.true_lit]
        if any(l == self.true_lit for l in live):
            return
        self.solver.add_clause(tuple(live) if live else (-self.true_lit,))
