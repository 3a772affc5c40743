"""Property-directed reachability (IC3/PDR): unbounded proofs.

This is the engine class the paper's commercial tool uses for its
unbounded results (the ``Mp``/``AM``/``I`` engines are IC3-family).
k-induction alone rarely proves taint properties — from an arbitrary
(unreachable) state, taint spreads to the sink within a few cycles —
whereas PDR discovers the inductive strengthening automatically.

Implementation notes:

- State variables are the gate-level register bits.  The transition
  relation is encoded once per frame solver: current-state variables,
  free inputs, combinational logic, and the bad/assumption signals.
- Frames ``F_0 .. F_N`` are clause sets over state variables; ``F_0``
  is the initial-state predicate.  Clauses are pushed forward during
  propagation; convergence is detected when two adjacent frames become
  equal.
- Blocked cubes are generalized by literal dropping (relative
  induction), which is where PDR earns its keep.
- Per-cycle assumption signals are conjoined into every frame query, so
  "bad" means "assumption-respecting violation" exactly as in BMC.

The module exposes :func:`pdr_prove` with the same property interface
as :func:`~repro.formal.bmc.bounded_model_check`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.bmc import _as_lowered
from repro.formal.certificate import Certificate
from repro.formal.counterexample import Counterexample
from repro.formal.frameprog import execute_ops, frame_program_for
from repro.formal.properties import SafetyProperty
from repro.formal.sat.solver import Solver, SolveStatus
from repro.obs import NULL_TRACER


class PdrStatus(enum.Enum):
    PROVED = "proved"
    COUNTEREXAMPLE = "counterexample"
    UNKNOWN = "unknown"


@dataclass
class PdrResult:
    status: PdrStatus
    frames: int = 0
    counterexample: Optional[Counterexample] = None
    elapsed: float = 0.0
    # On PROVED: the inductive invariant as a checkable certificate
    # (see repro.formal.certificate.check_certificate).
    certificate: Optional[Certificate] = None

    @property
    def proved(self) -> bool:
        return self.status is PdrStatus.PROVED

    @property
    def invariant_clauses(self):
        """The proved inductive invariant's clauses (named literals)."""
        return self.certificate.clauses if self.certificate is not None else ()


class _TransitionSolver:
    """A solver holding one copy of the transition relation.

    Layout: state vars (register bits), input vars, combinational
    logic; exposes literals for bad, assumptions, and next-state bits.
    The frame is the lowering's op program interpreted over fresh state
    and input variables, so PDR builds no gate-level ``Circuit``.
    Frame clauses and blocked cubes are added over the *state* vars
    using activation literals per frame.
    """

    def __init__(self, lowered: LoweredCircuit, prop: SafetyProperty,
                 max_conflicts: Optional[int] = None) -> None:
        self.lowered = lowered
        self.max_conflicts = max_conflicts  # per-query conflict budget
        self.solver = Solver()
        true_lit = self.solver.new_var()
        self.solver.add_clause((true_lit,))
        program = frame_program_for(lowered)
        registers = lowered.register_entries()
        state = [self.solver.new_var() for _ in program.boundary_slots]
        inputs = [self.solver.new_var() for _ in program.input_slots]
        self.frame = execute_ops(program, self.solver, true_lit, state, inputs)
        self.state_names: List[str] = [q for q, _d, _reset in registers]
        self.state_lit: Dict[str, int] = dict(zip(self.state_names, state))
        self.next_lit: Dict[str, int] = {
            q: self.frame.lit(d) for q, d, _reset in registers
        }
        self.bad_lit = self._signal_lit(prop.bad)
        self.assumption_lits = [self._signal_lit(n) for n in prop.assumptions]
        for lit in self.assumption_lits:
            self.solver.add_clause((lit,))
        self._activation: List[int] = []  # one per frame; act => frame clauses
        self._act_level: Dict[int, int] = {}  # activation var -> frame level
        # Word-level input name -> per-bit frame literals, hoisted out of
        # input_values (it used to rebuild the input-name set per signal,
        # O(inputs x signals) per extracted counterexample state).
        input_names = set(lowered.input_names())
        self._input_bit_lits: List[Tuple[str, List[int]]] = [
            (name, [self.frame.lit(sig.name) for sig in bit_sigs])
            for name, bit_sigs in lowered.bits.items()
            if bit_sigs and bit_sigs[0].name in input_names
        ]

    def _signal_lit(self, original_name: str) -> int:
        gate_sig = self.lowered.bits[original_name][0]
        return self.frame.lit(gate_sig.name)

    # -- frames --------------------------------------------------------
    def ensure_frames(self, count: int) -> None:
        while len(self._activation) < count:
            act = self.solver.new_var()
            self._act_level[act] = len(self._activation)
            self._activation.append(act)

    def activation(self, level: int) -> int:
        return self._activation[level]

    def frame_activations(self, level: int) -> List[int]:
        """Activation literals realising F_level (levels ``level .. N``)."""
        self.ensure_frames(level + 1)
        return self._activation[level:]

    def activation_level(self, lit: int) -> Optional[int]:
        """The frame level of an activation literal; None for any other
        literal (cube literals, the per-query ¬cube activator)."""
        return self._act_level.get(lit)

    def add_frame_clause(self, level: int, clause: Sequence[int]) -> None:
        """Add a clause over state literals, guarded by frame ``level``'s
        activation literal (it also holds in all stronger frames, which
        we encode by adding it at every level <= the given one lazily —
        here we rely on queries assuming activations of all levels >= i)."""
        self.solver.add_clause(tuple(clause) + (-self._activation[level],))

    # -- queries --------------------------------------------------------
    def solve(self, assumptions: Sequence[int], time_limit: Optional[float] = None):
        return self.solver.solve(assumptions=assumptions, time_limit=time_limit,
                                 max_conflicts=self.max_conflicts)

    def state_cube_from_model(self, model) -> Tuple[int, ...]:
        """Extract the current-state cube (as signed state literals)."""
        cube = []
        for name in self.state_names:
            lit = self.state_lit[name]  # a fresh variable, never a constant
            cube.append(lit if model[lit] else -lit)
        return tuple(cube)

    def input_values(self, model) -> Dict[str, int]:
        values: Dict[str, int] = {}
        for name, lits in self._input_bit_lits:
            word = 0
            for i, lit in enumerate(lits):
                if model[abs(lit)] ^ (lit < 0):
                    word |= 1 << i
            values[name] = word
        return values


class _Pdr:
    def __init__(
        self,
        lowered: LoweredCircuit,
        prop: SafetyProperty,
        initial_values: Optional[Dict[str, int]] = None,
        max_conflicts: Optional[int] = None,
    ) -> None:
        self.lowered = lowered
        self.prop = prop
        self.ts = _TransitionSolver(lowered, prop, max_conflicts=max_conflicts)
        self.frames: List[Set[Tuple[int, ...]]] = [set()]  # clauses per level
        self.ts.ensure_frames(1)
        self._init_cube = self._initial_cube(initial_values or {})
        self._init_lits = set(self._init_cube)
        # F_0 = init: encode each init literal as a frame-0 unit clause.
        for lit in self._init_cube:
            self._add_clause(0, (lit,))
        self._trace_parent: Dict[Tuple[int, ...], Tuple] = {}
        # Clauses whose consecution core needed no frame clauses at all:
        # they are inductive on their own and push without re-querying.
        self._inductive: Set[Tuple[int, ...]] = set()

    # ------------------------------------------------------------------
    def _initial_cube(self, initial_values: Dict[str, int]) -> Tuple[int, ...]:
        cube = []
        symbolic = self.prop.symbolic_registers
        sym_all = self.prop.symbolic_all_registers
        orig_of = {}
        for orig, bits in self.lowered.bits.items():
            for i, sig in enumerate(bits):
                orig_of[sig.name] = (orig, i)
        for q, _d, reset in self.lowered.register_entries():
            orig, bit_index = orig_of.get(q, (q, 0))
            if sym_all or orig in symbolic or q in symbolic:
                continue
            if orig in initial_values:
                bit = (initial_values[orig] >> bit_index) & 1
            else:
                bit = reset & 1
            lit = self.ts.state_lit[q]
            cube.append(lit if bit else -lit)
        return tuple(cube)

    def _add_clause(self, level: int, clause: Sequence[int]) -> None:
        self.ts.ensure_frames(level + 1)
        while len(self.frames) <= level:
            self.frames.append(set())
        key = tuple(sorted(clause))
        if any(key in self.frames[l] for l in range(level, len(self.frames))):
            return
        self.frames[level].add(key)
        self.ts.add_frame_clause(level, clause)

    def _frame_assumptions(self, level: int) -> List[int]:
        """Activations realising F_level.

        A clause is *stored* at the highest level it is known to hold
        for; since frames weaken with the level (F_0 ⊆ F_1 ⊆ …), a
        clause stored at level k also holds for every F_i with i <= k.
        A query against F_level therefore assumes the activation
        literals of levels ``level .. N``.
        """
        return self.ts.frame_activations(level)

    # ------------------------------------------------------------------
    def run(
        self,
        max_frames: int = 100,
        time_limit: Optional[float] = None,
        tracer=None,
    ) -> PdrResult:
        started = time.monotonic()
        tracer = tracer or NULL_TRACER

        def remaining() -> Optional[float]:
            if time_limit is None:
                return None
            return time_limit - (time.monotonic() - started)

        def out_of_time() -> bool:
            rem = remaining()
            return rem is not None and rem <= 0

        # Level 0 check: can the initial state itself be bad?
        res = self.ts.solve(self._frame_assumptions(0) + [self.ts.bad_lit],
                            time_limit=remaining())
        if res.status is SolveStatus.SAT:
            return PdrResult(PdrStatus.COUNTEREXAMPLE, 0,
                             self._counterexample_from_trace([(None, res.model)]),
                             elapsed=time.monotonic() - started)
        if res.status is SolveStatus.UNKNOWN:
            return PdrResult(PdrStatus.UNKNOWN, 0, elapsed=time.monotonic() - started)

        level = 0
        while level < max_frames:
            if out_of_time():
                return PdrResult(PdrStatus.UNKNOWN, level,
                                 elapsed=time.monotonic() - started)
            level += 1
            self.ts.ensure_frames(level + 1)
            while len(self.frames) <= level:
                self.frames.append(set())
            solver = self.ts.solver
            counters_at_entry = (solver.conflicts, solver.decisions,
                                 solver.propagations, solver.learned,
                                 solver.restarts)
            with tracer.span("pdr.frame", cat="engine", frame=level) as span:
                # Block all bad states reachable at this level.
                while True:
                    if out_of_time():
                        return PdrResult(PdrStatus.UNKNOWN, level,
                                         elapsed=time.monotonic() - started)
                    res = self.ts.solve(
                        self._frame_assumptions(level) + [self.ts.bad_lit],
                        time_limit=remaining(),
                    )
                    if res.status is SolveStatus.UNKNOWN:
                        return PdrResult(PdrStatus.UNKNOWN, level,
                                         elapsed=time.monotonic() - started)
                    if res.status is SolveStatus.UNSAT:
                        break
                    cube = self.ts.state_cube_from_model(res.model)
                    trace_tail = (cube, self.ts.input_values(res.model), None)
                    blocked = self._block(cube, level, trace_tail, remaining())
                    if blocked is None:
                        return PdrResult(PdrStatus.UNKNOWN, level,
                                         elapsed=time.monotonic() - started)
                    if blocked is False:
                        return PdrResult(
                            PdrStatus.COUNTEREXAMPLE, level,
                            self._build_counterexample(),
                            elapsed=time.monotonic() - started,
                        )
                # Propagation: push clauses forward; detect fixpoint.
                fixpoint_level = self._propagate(level, remaining())
                if tracer.enabled:
                    span.set(
                        clauses=sum(len(f) for f in self.frames),
                        conflicts=solver.conflicts - counters_at_entry[0],
                        decisions=solver.decisions - counters_at_entry[1],
                        propagations=solver.propagations - counters_at_entry[2],
                        learned=solver.learned - counters_at_entry[3],
                        restarts=solver.restarts - counters_at_entry[4],
                    )
                    tracer.count("sat.conflicts", solver.conflicts - counters_at_entry[0])
                    tracer.count("sat.decisions", solver.decisions - counters_at_entry[1])
                    tracer.count("sat.propagations", solver.propagations - counters_at_entry[2])
                    tracer.count("sat.learned", solver.learned - counters_at_entry[3])
                    tracer.count("sat.restarts", solver.restarts - counters_at_entry[4])
            if fixpoint_level is not None:
                return PdrResult(PdrStatus.PROVED, level,
                                 elapsed=time.monotonic() - started,
                                 certificate=self._build_certificate(fixpoint_level))
        return PdrResult(PdrStatus.UNKNOWN, level, elapsed=time.monotonic() - started)

    # ------------------------------------------------------------------
    def _block(self, cube, level, trace_tail, budget) -> Optional[bool]:
        """Recursively block ``cube`` at ``level``.

        Returns True when blocked, False when a real counterexample was
        traced back to the initial states, None on budget exhaustion.
        """
        started = time.monotonic()

        def remaining():
            if budget is None:
                return None
            return budget - (time.monotonic() - started)

        obligations: List[Tuple[Tuple[int, ...], int, Tuple]] = [(cube, level, trace_tail)]
        self._cex_chain: List[Tuple] = []
        while obligations:
            if remaining() is not None and remaining() <= 0:
                return None
            current, lvl, tail = obligations.pop()
            # Obligation cubes are full predecessor states (generalized
            # clauses are never enqueued), so intersecting the initial
            # predicate means *being* an initial state — a concrete
            # counterexample, whatever level the obligation sits at.
            if self._intersects_init(current):
                self._cex_chain = self._collect_chain(tail)
                return False
            if lvl == 0:
                # Cannot be an initial state: blocked at level 0 by init.
                continue
            # Is the cube already excluded at lvl?
            res = self.ts.solve(
                self._frame_assumptions(lvl) + list(current),
                time_limit=remaining(),
            )
            if res.status is SolveStatus.UNKNOWN:
                return None
            if res.status is SolveStatus.UNSAT:
                continue
            # Relative consecution: F_{lvl-1} ∧ ¬cube ∧ T ∧ cube' SAT?
            res, core_cube, core_level = self._consecution_query(
                current, lvl - 1, remaining())
            if res is None:
                return None
            if res.status is SolveStatus.SAT:
                pred = self.ts.state_cube_from_model(res.model)
                pred_tail = (pred, self.ts.input_values(res.model), tail)
                obligations.append((current, lvl, tail))
                obligations.append((pred, lvl - 1, pred_tail))
                continue
            # No predecessor: generalize and add the blocking clause at
            # the highest frame the consecution core supports.
            generalized, store_at = self._generalize(
                current, lvl, remaining(), core_cube, core_level)
            if generalized is None:
                return None
            clause = tuple(-lit for lit in generalized)
            self._add_clause(store_at, clause)
            # The state is now excluded up to store_at; keep chasing it
            # at the next frame so it cannot resurface there later
            # (Een-style obligation rescheduling).
            if store_at < level:
                obligations.append((current, store_at + 1, tail))
        return True

    def _consecution_query(self, cube, from_level, budget):
        """SAT query: F_from ∧ ¬cube ∧ T ∧ cube'.

        The cube's next-state literals ride in as *assumptions*, so an
        UNSAT answer carries a failed-assumption core.  Returns a triple
        ``(result, core_cube, core_level)``; ``(None, None, None)`` on a
        blown budget.  On UNSAT, ``core_cube`` is the subset of ``cube``
        whose primed literals the refutation used, and ``core_level`` is
        the lowest frame whose activation appears in the core — the
        query was really UNSAT relative to that (weaker) frame — or -1
        when no frame clause was needed at all (the clause is inductive
        unconditionally).
        """
        act = self.ts.solver.new_var()
        self.ts.solver.add_clause((-act,) + tuple(-lit for lit in cube))
        next_lits = [self._to_next(lit) for lit in cube]
        res = self.ts.solve(
            self._frame_assumptions(from_level) + [act] + next_lits,
            time_limit=budget,
        )
        # Permanently disable the temporary ¬cube clause.
        self.ts.solver.add_clause((-act,))
        if res.status is SolveStatus.UNKNOWN:
            return None, None, None
        if res.status is not SolveStatus.UNSAT or res.core is None:
            return res, None, None
        core_set = set(res.core)
        core_cube = tuple(
            lit for lit, nxt in zip(cube, next_lits) if nxt in core_set
        )
        levels = [
            lvl for lvl in map(self.ts.activation_level, core_set)
            if lvl is not None
        ]
        core_level = min(levels) if levels else -1
        return res, core_cube, core_level

    def _to_next(self, state_lit: int) -> int:
        """Map a signed current-state literal to the next-state literal."""
        table = getattr(self, "_next_of_var", None)
        if table is None:
            table = {}
            for name, lit in self.ts.state_lit.items():
                table[abs(lit)] = (lit, self.ts.next_lit[name])
            self._next_of_var = table
        base, nxt = table[abs(state_lit)]
        return nxt if (state_lit > 0) == (base > 0) else -nxt

    def _intersects_init(self, cube) -> bool:
        return not any(-lit in self._init_lits for lit in cube)

    def _build_certificate(self, fixpoint_level: int) -> Certificate:
        """Export the inductive invariant found at the fixpoint.

        When ``frames[lvl]`` empties during propagation, every clause
        still stored at a level > lvl holds at F_lvl and F_{lvl+1}
        alike, so their conjunction is closed under the transition
        relation and excludes ``bad`` — the invariant.  Clauses are
        translated from solver literals to named register-bit literals
        so the certificate survives the process boundary and can be
        re-checked against an independent encoding.
        """
        lit_to_name = {abs(lit): name for name, lit in self.ts.state_lit.items()}
        clauses = set()
        for frame in self.frames[fixpoint_level + 1:]:
            for clause in frame:
                named = []
                for lit in clause:
                    name = lit_to_name[abs(lit)]
                    base = self.ts.state_lit[name]
                    value = 1 if (lit > 0) == (base > 0) else 0
                    named.append((name, value))
                clauses.add(tuple(sorted(named)))
        return Certificate(
            prop_name=self.prop.name,
            bad=self.prop.bad,
            clauses=tuple(sorted(clauses)),
        )

    def _store_level(self, block_level: int, core_level: Optional[int],
                     clause: Tuple[int, ...]) -> int:
        """Translate a consecution core's frame level into the level the
        blocking clause can be *stored* at.

        A query against F_{k} whose core only used activations of levels
        >= m was really UNSAT relative to the weaker frame F_m, so the
        clause holds up to F_{m+1} — an eager multi-level push that
        skips the intermediate per-frame re-queries.  A core with no
        frame activation at all (-1) means the clause is inductive
        unconditionally; it is marked so propagation pushes it for free
        forever.
        """
        if core_level is None:
            return block_level
        if core_level < 0:
            self._inductive.add(tuple(sorted(clause)))
            return max(block_level, len(self.frames) - 1)
        return max(block_level, core_level + 1)

    def _generalize(self, cube, level, budget, core_cube=None,
                    core_level=None) -> Tuple[Optional[Tuple[int, ...]], int]:
        """Shrink a blocked cube, then compute its storage level.

        First seeds from the failed-assumption core — every literal
        whose primed version the refutation never used is dropped in one
        step, no re-query needed (the sub-cube's consecution query is a
        strictly stronger formula; SMPT's ``sub_clause_finder_unsat_core``)
        — repairing an init intersection by re-adding one literal that
        separates the cube from the initial states.  Then falls back to
        MIC-style one-literal-at-a-time dropping, re-querying each drop.
        Returns ``(generalized cube, storage level)``.
        """
        started = time.monotonic()
        current = list(cube)
        evidence = core_level  # core level backing `current`'s blocking
        if core_cube is not None and 0 < len(core_cube) < len(current):
            trial = list(core_cube)
            if self._intersects_init(trial):
                for lit in cube:
                    if -lit in self._init_lits and lit not in trial:
                        trial.append(lit)
                        break
            if not self._intersects_init(trial):
                current = trial
        for lit in list(current):
            if budget is not None and time.monotonic() - started > budget:
                break
            if len(current) <= 1 or lit not in current:
                continue
            trial = [l for l in current if l != lit]
            if self._intersects_init(trial):
                continue
            res, sub_core, sub_level = self._consecution_query(
                tuple(trial), level - 1, budget)
            if res is not None and res.status is SolveStatus.UNSAT:
                current = trial
                evidence = sub_level
        generalized = tuple(current)
        clause = tuple(-lit for lit in generalized)
        return generalized, self._store_level(level, evidence, clause)

    def _propagate(self, top_level: int, budget) -> Optional[int]:
        """Push clauses to higher frames; returns the level whose frame
        emptied out (fixpoint: F_lvl == F_{lvl+1}, an inductive
        invariant) or None.

        Core-aware: a clause already known inductive pushes without a
        query, and a re-query whose core is frame-local (only used
        activations of higher levels) jumps the clause straight to the
        level its core supports.
        """
        started = time.monotonic()
        for lvl in range(1, top_level):
            for clause in sorted(self.frames[lvl]):
                if budget is not None and time.monotonic() - started > budget:
                    return None
                if clause in self._inductive:
                    self.frames[lvl].discard(clause)
                    self._add_clause(lvl + 1, clause)
                    continue
                # clause holds at lvl; push when F_lvl ∧ T ∧ ¬clause' UNSAT.
                cube = tuple(-lit for lit in clause)
                res, _core_cube, core_level = self._consecution_query(
                    cube, lvl, budget)
                if res is not None and res.status is SolveStatus.UNSAT:
                    self.frames[lvl].discard(clause)
                    self._add_clause(
                        self._store_level(lvl + 1, core_level, clause), clause)
            if not self.frames[lvl]:
                return lvl
        return None

    # -- counterexample reconstruction ----------------------------------
    def _collect_chain(self, tail) -> List[Tuple]:
        chain = []
        node = tail
        while node is not None:
            cube, inputs, parent = node
            chain.append((cube, inputs))
            node = parent
        return chain  # innermost (initial) state first

    def _build_counterexample(self) -> Counterexample:
        chain = self._cex_chain
        if not chain:
            raise RuntimeError("no counterexample chain recorded")
        initial_cube, _ = chain[0]
        initial_state = self._cube_to_state(initial_cube)
        inputs = [frame_inputs for _, frame_inputs in chain]
        return Counterexample(
            length=len(inputs),
            inputs=inputs,
            initial_state=initial_state,
            bad_signal=self.prop.bad,
        )

    def _counterexample_from_trace(self, pairs) -> Counterexample:
        _, model = pairs[0]
        cube = self.ts.state_cube_from_model(model)
        return Counterexample(
            length=1,
            inputs=[self.ts.input_values(model)],
            initial_state=self._cube_to_state(cube),
            bad_signal=self.prop.bad,
        )

    def _cube_to_state(self, cube) -> Dict[str, int]:
        lit_to_name = {abs(lit): name for name, lit in self.ts.state_lit.items()}
        bit_values: Dict[str, int] = {}
        for lit in cube:
            name = lit_to_name.get(abs(lit))
            if name is None:
                continue
            base_lit = self.ts.state_lit[name]
            value = 1 if (lit > 0) == (base_lit > 0) else 0
            bit_values[name] = value
        # Re-pack bit registers into word-level original names.
        state: Dict[str, int] = {}
        for orig, bit_sigs in self.lowered.bits.items():
            if not bit_sigs or bit_sigs[0].name not in bit_values and all(
                s.name not in bit_values for s in bit_sigs
            ):
                continue
            word = 0
            known = False
            for i, sig in enumerate(bit_sigs):
                if sig.name in bit_values:
                    known = True
                    word |= bit_values[sig.name] << i
            if known:
                state[orig] = word
        return state


def pdr_prove(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    max_frames: int = 100,
    time_limit: Optional[float] = None,
    initial_values: Optional[Dict[str, int]] = None,
    max_conflicts: Optional[int] = None,
    tracer=None,
) -> PdrResult:
    """Attempt an unbounded proof of ``prop`` with IC3/PDR.

    Notes:

    - counterexamples reported by PDR may be longer than minimal
      (unlike BMC's shortest-first search); replay them for the trace;
    - ``init_assumptions`` are treated as an over-approximation (PDR
      allows any initial state the reset/symbolic spec permits): proofs
      remain sound, and counterexamples are re-validated by replay —
      one that violates an init assumption is downgraded to UNKNOWN
      (use BMC to search for a genuine one);
    - ``max_conflicts`` bounds every individual SAT query by conflict
      count; an exceeded budget surfaces as UNKNOWN, deterministically;
    - ``tracer`` records one span per PDR level with the frame-clause
      count and the SAT counters spent on that level attached.
    """
    lowered = _as_lowered(circuit, prop)
    engine = _Pdr(lowered, prop, initial_values, max_conflicts=max_conflicts)
    result = engine.run(max_frames=max_frames, time_limit=time_limit, tracer=tracer)
    if (
        result.status is PdrStatus.COUNTEREXAMPLE
        and prop.init_assumptions
        and _breaks_init_assumptions(lowered, prop, result.counterexample)
    ):
        return PdrResult(PdrStatus.UNKNOWN, result.frames,
                         elapsed=result.elapsed)
    return result


def _breaks_init_assumptions(lowered: LoweredCircuit, prop: SafetyProperty,
                             cex: Counterexample) -> bool:
    """True when ``cex``'s first cycle violates an init assumption.

    The check replays the first cycle on the gate-level netlist PDR
    searched, so it runs whether the caller passed a ``Circuit`` or an
    already lowered one (as the portfolio does).
    """
    def bits(values: Dict[str, int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, value in values.items():
            if name in lowered.bits:
                out.update(lowered.unpack(name, value))
        return out

    first = Counterexample(1, [bits(cex.inputs[0]) if cex.inputs else {}],
                           bits(cex.initial_state))
    names = [lowered.bits[name][0].name for name in prop.init_assumptions]
    waveform = first.replay(lowered.circuit, record=names)
    return any(waveform.value(name, 0) == 0 for name in names)
