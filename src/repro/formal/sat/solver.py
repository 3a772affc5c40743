"""CDCL SAT solver (MiniSat-style), written from scratch.

Features: two-watched-literal propagation with *blocker* literals, 1UIP
conflict analysis with clause learning, VSIDS variable activities with
phase saving (decision order from a heap holding one live entry per
variable), Luby restarts, LBD-aware learned-clause deletion,
assumption literals, and conflict/time budgets (returning UNKNOWN
instead of blowing the model-checking time limit — this is how the
paper's timeouts are realised).

Hot-path representation: clauses of three or more literals live in one
flat Python list of ints (the *arena*).  A clause at integer reference
``ref`` has the layout::

    _ca[ref]     = size (number of literals)
    _ca[ref+1]   = 1 if learnt else 0
    _ca[ref+2..] = literals in internal encoding (2*v / 2*v+1)

Watch lists are flat ``blocker, ref`` pairs, so propagation touches the
arena only when the blocker literal is not already satisfied.

Binary clauses — the majority of a Tseitin encoding (every AND/OR input
contributes one) — never enter the arena at all: each literal has a
dedicated flat list of the *other* literals of its binary clauses,
walked before the long-clause watches in a tight loop with no arena
access and no watch relocation (a binary watch never moves).  A binary
*reason* is encoded in the reason slot itself as ``-2 - other_lit``
(arena references are ``>= 0``, ``-1`` means decision/assumption).
Arena slot 0 is a reserved scratch clause used to hand binary
conflicts to the analyzer in the uniform arena shape.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolveResult:
    status: SolveStatus
    model: Optional[List[bool]] = None  # model[v] for v in 1..n; model[0] unused
    # Per-call search statistics (this solve() only, not cumulative):
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned: int = 0                    # clauses learned from conflicts
    restarts: int = 0
    # On UNSAT under assumptions: the subset of the passed assumption
    # literals (DIMACS-signed, as passed) the refutation actually used —
    # re-solving under just these is still UNSAT.  An empty list means
    # the formula is UNSAT regardless of the assumptions.  None when the
    # result is not UNSAT (or predates core extraction).
    core: Optional[List[int]] = None

    def value(self, var: int) -> bool:
        if self.model is None:
            raise ValueError("no model available")
        return self.model[var]

    def lit_true(self, lit: int) -> bool:
        v = self.value(abs(lit))
        return v if lit > 0 else not v


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,…"""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


_NO_REASON = -1
_BINARY = -2  # reason encoding base: reason == -2 - other_lit for binaries
#: The order heap is rebuilt from its live entries once it holds more
#: than this many entries per variable (superseded ones included).
_HEAP_SLACK = 4


class Solver:
    """CDCL solver over internal literal encoding ``2*v`` / ``2*v+1``.

    The public API uses DIMACS-signed literals.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Arena slot 0 is the scratch clause for binary conflicts:
        # [size=2, learnt=0, lit, lit]; real clauses start at ref 4.
        self._ca: List[int] = [2, 0, 0, 0]
        self._clause_refs: List[int] = []   # problem clauses (>= 3 lits)
        self._learnt_refs: List[int] = []   # learnt clauses (>= 3 lits)
        self._num_binaries = 0              # binaries live only in watch lists
        self._cla_act: Dict[int, float] = {}
        self._cla_lbd: Dict[int, int] = {}
        self._watches: List[List[int]] = [[], []]  # flat (blocker, ref) pairs
        self._bin_watches: List[List[int]] = [[], []]  # other lit per binary
        self._assign: List[int] = [-1]  # -1 unassigned, 0 false, 1 true ; index by var
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]  # ref | -1 | (-2 - other_lit)
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        self._trail: List[int] = []  # internal lits in assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._cla_inc = 1.0
        # VSIDS order: a min-heap of (-activity, var) with at most one
        # *live* entry per variable.  _heap_key[v] is the activity its
        # live entry carries, or -1.0 when it has none; an entry whose
        # key differs is superseded and dropped when popped.
        self._order_heap: List[tuple] = []
        self._heap_key: List[float] = [-1.0]
        self._ok = True
        # Cumulative counters across every solve() on this instance
        # (per-call figures are returned on each SolveResult).
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # variable / clause management
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(-1)
        self._level.append(0)
        self._reason.append(_NO_REASON)
        self._activity.append(0.0)
        self._phase.append(0)
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        # Activity 0 and the largest index: the entry sorts after every
        # other, so appending keeps the heap ordered.
        self._heap_key.append(0.0)
        self._order_heap.append((-0.0, self.num_vars))
        return self.num_vars

    def new_vars(self, count: int) -> int:
        """Bulk-allocate ``count`` fresh variables; returns the first one.

        Equivalent to ``count`` calls of :meth:`new_var` but without the
        per-call overhead; :meth:`ensure_vars` grows the solver with it.
        """
        if count <= 0:
            return self.num_vars + 1
        first = self.num_vars + 1
        self.num_vars += count
        self._assign.extend([-1] * count)
        self._level.extend([0] * count)
        self._reason.extend([_NO_REASON] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([0] * count)
        self._watches.extend([] for _ in range(2 * count))
        self._bin_watches.extend([] for _ in range(2 * count))
        self._heap_key.extend([0.0] * count)
        self._order_heap.extend((-0.0, v) for v in range(first, self.num_vars + 1))
        return first

    def ensure_vars(self, n: int) -> None:
        if n > self.num_vars:
            self.new_vars(n - self.num_vars)

    @property
    def num_clauses(self) -> int:
        """Problem + learnt clauses currently in the database."""
        return len(self._clause_refs) + len(self._learnt_refs) + self._num_binaries

    @staticmethod
    def _internal(lit: int) -> int:
        return (abs(lit) << 1) | (lit < 0)

    @staticmethod
    def _external(ilit: int) -> int:
        var = ilit >> 1
        return -var if ilit & 1 else var

    def _lit_value(self, ilit: int) -> int:
        """-1 unassigned, 1 true, 0 false."""
        v = self._assign[ilit >> 1]
        if v < 0:
            return -1
        return v ^ (ilit & 1)

    def _add_binary(self, l0: int, l1: int) -> None:
        # Indexed like _watches: _bin_watches[lit] is consulted when
        # lit itself becomes false, yielding the implied other literal.
        self._bin_watches[l0].append(l1)
        self._bin_watches[l1].append(l0)
        self._num_binaries += 1

    def _new_clause(self, ilits: Sequence[int], learnt: bool) -> int:
        """Append a clause (>= 3 literals) to the arena and watch it."""
        ca = self._ca
        ref = len(ca)
        ca.append(len(ilits))
        ca.append(1 if learnt else 0)
        ca.extend(ilits)
        l0, l1 = ilits[0], ilits[1]
        w0 = self._watches[l0]
        w0.append(l1)
        w0.append(ref)
        w1 = self._watches[l1]
        w1.append(l0)
        w1.append(ref)
        if learnt:
            self._learnt_refs.append(ref)
        else:
            self._clause_refs.append(ref)
        return ref

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause; returns False if the formula became UNSAT."""
        if not self._ok:
            return False
        for lit in lits:
            self.ensure_vars(abs(lit))
        # Normalise: dedupe, drop tautologies, drop false lits at level 0.
        seen: Dict[int, int] = {}
        norm: List[int] = []
        for lit in lits:
            ilit = self._internal(lit)
            if seen.get(ilit ^ 1):
                return True  # tautology
            if seen.get(ilit):
                continue
            value = self._lit_value(ilit)
            if value == 1 and self._level[ilit >> 1] == 0:
                return True  # already satisfied
            if value == 0 and self._level[ilit >> 1] == 0:
                continue  # already false forever
            seen[ilit] = 1
            norm.append(ilit)
        if not norm:
            self._ok = False
            return False
        if len(norm) == 1:
            if not self._enqueue(norm[0], _NO_REASON):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict >= 0:
                self._ok = False
                return False
            return True
        if len(norm) == 2:
            self._add_binary(norm[0], norm[1])
        else:
            self._new_clause(norm, learnt=False)
        return True

    def add_cnf(self, cnf) -> bool:
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    # ------------------------------------------------------------------
    # assignment / propagation
    # ------------------------------------------------------------------
    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        value = self._lit_value(ilit)
        if value >= 0:
            return value == 1
        var = ilit >> 1
        self._assign[var] = 1 - (ilit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = 1 - (ilit & 1)
        self._trail.append(ilit)
        return True

    def _propagate(self) -> int:
        """Propagate the trail; returns a conflict clause ref or -1.

        For each newly-false literal the dedicated binary list is
        walked first (one value test per clause, nothing to relocate),
        then the long-clause watches, compacted in place with a write
        index.  A binary conflict is written into the arena's scratch
        slot (ref 0) so conflict analysis sees the uniform arena
        clause shape.
        """
        trail = self._trail
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        bin_watches = self._bin_watches
        ca = self._ca
        # The decision level is fixed while propagating, and the queue
        # head is written back once, at the end.
        current_level = len(self._trail_lim)
        qhead = self._qhead
        visited = 0
        conflict = _NO_REASON
        while qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1
            false_lit = ilit ^ 1  # this literal just became false
            bwl = bin_watches[false_lit]
            if bwl:
                visited += len(bwl)
                breason = -2 - false_lit
                for other in bwl:
                    ov = assign[other >> 1]
                    if ov < 0:
                        # Other literal unassigned: implied.
                        var = other >> 1
                        assign[var] = 1 - (other & 1)
                        level[var] = current_level
                        reason[var] = breason
                        phase[var] = 1 - (other & 1)
                        trail.append(other)
                    elif not (ov ^ (other & 1)):
                        # Both literals of (false_lit, other) false.
                        ca[2] = false_lit
                        ca[3] = other
                        conflict = 0
                        break
                if conflict >= 0:
                    break
            wl = watches[false_lit]
            i = j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i]
                ref = wl[i + 1]
                i += 2
                visited += 1
                bv = assign[blocker >> 1]
                if bv >= 0 and bv ^ (blocker & 1):
                    # Blocker satisfied: clause true, arena untouched.
                    wl[j] = blocker
                    wl[j + 1] = ref
                    j += 2
                    continue
                # Ensure the false literal sits at the second slot.
                first = ca[ref + 2]
                if first == false_lit:
                    first = ca[ref + 3]
                    ca[ref + 2] = first
                    ca[ref + 3] = false_lit
                fv = assign[first >> 1]
                if fv >= 0 and fv ^ (first & 1):
                    wl[j] = first
                    wl[j + 1] = ref
                    j += 2
                    continue
                # Look for a new watch.
                found = False
                for k in range(ref + 4, ref + 2 + ca[ref]):
                    other = ca[k]
                    ov = assign[other >> 1]
                    if ov < 0 or ov ^ (other & 1):
                        ca[ref + 3] = other
                        ca[k] = false_lit
                        wo = watches[other]
                        wo.append(first)
                        wo.append(ref)
                        found = True
                        break
                if found:
                    continue
                # Unit or conflicting.
                wl[j] = first
                wl[j + 1] = ref
                j += 2
                if fv < 0:
                    var = first >> 1
                    assign[var] = 1 - (first & 1)
                    level[var] = current_level
                    reason[var] = ref
                    phase[var] = 1 - (first & 1)
                    trail.append(first)
                else:
                    # Conflict: keep remaining watches and report.
                    if i < n:
                        wl[j: j + (n - i)] = wl[i:n]
                        j += n - i
                    conflict = ref
                    break
            del wl[j:]
            if conflict >= 0:
                break
        # A conflict abandons the rest of the queue.
        self._qhead = len(trail)
        self.propagations += visited
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _rescale_activities(self) -> None:
        """Scale every activity (and the increment) down by 1e-100."""
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        # Every key in the heap is now stale: re-key it.
        self._rebuild_heap()

    def _bump_clause(self, ref: int) -> None:
        act = self._cla_act.get(ref, 0.0) + self._cla_inc
        self._cla_act[ref] = act
        if act > 1e20:
            for r in self._learnt_refs:
                self._cla_act[r] = self._cla_act.get(r, 0.0) * 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple:
        """Return (learnt clause internal lits, backtrack level, lbd)."""
        ca = self._ca
        level = self._level
        reason_of = self._reason
        trail = self._trail
        seen = bytearray(self.num_vars + 1)
        learnt: List[int] = [0]  # placeholder for asserting literal
        path_count = 0
        ilit = -1
        index = len(trail) - 1
        ref = conflict
        current_level = len(self._trail_lim)
        activity = self._activity
        var_inc = self._var_inc

        while True:
            if ref <= _BINARY:
                # Binary reason: the clause implying ilit is (ilit, -2 - ref).
                reason_lits = (-2 - ref,)
            else:
                if ca[ref + 1]:
                    self._bump_clause(ref)
                reason_lits = ca[ref + 2: ref + 2 + ca[ref]]
            for lit in reason_lits:
                if lit == ilit:
                    continue  # the literal this reason implied
                var = lit >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    act = activity[var] = activity[var] + var_inc
                    if act > 1e100:
                        self._rescale_activities()
                        var_inc = self._var_inc
                    if level[var] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(lit)
            # Select next literal to expand from trail.
            while not seen[trail[index] >> 1]:
                index -= 1
            ilit = trail[index]
            index -= 1
            var = ilit >> 1
            seen[var] = 0
            path_count -= 1
            if path_count == 0:
                break
            ref = reason_of[var]
        learnt[0] = ilit ^ 1

        # Conflict-clause minimisation (recursive, simple self-subsumption).
        abstract_levels = 0
        for lit in learnt[1:]:
            abstract_levels |= 1 << (level[lit >> 1] & 31)
        kept = [learnt[0]]
        for lit in learnt[1:]:
            if reason_of[lit >> 1] == _NO_REASON or not self._redundant(
                    lit, seen, abstract_levels):
                kept.append(lit)
        learnt = kept

        # Literal-block distance: distinct decision levels in the clause
        # (the glucose quality measure steering DB reduction).
        lbd = len({level[lit >> 1] for lit in learnt})

        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the literal with the second-highest level; move to pos 1.
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level, lbd

    def _redundant(self, lit: int, seen: bytearray, abstract_levels: int) -> bool:
        """Is ``lit`` implied by the rest of the learnt clause? (bounded DFS)"""
        ca = self._ca
        level = self._level
        reason_of = self._reason
        stack = [lit]
        cleared: List[int] = []
        while stack:
            current = stack.pop()
            ref = reason_of[current >> 1]
            if ref == _NO_REASON:
                for var in cleared:
                    seen[var] = 0
                return False
            if ref <= _BINARY:
                others = (-2 - ref,)
            else:
                others = ca[ref + 2: ref + 2 + ca[ref]]
            for other in others:
                if other == current or other == (current ^ 1):
                    continue
                var = other >> 1
                if seen[var] or level[var] == 0:
                    continue
                if reason_of[var] == _NO_REASON or not (
                        (1 << (level[var] & 31)) & abstract_levels):
                    for v in cleared:
                        seen[v] = 0
                    return False
                seen[var] = 1
                cleared.append(var)
                stack.append(other)
        return True

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        reason = self._reason
        activity = self._activity
        heap_key = self._heap_key
        heap = self._order_heap
        for ilit in reversed(self._trail[limit:]):
            var = ilit >> 1
            assign[var] = -1
            reason[var] = _NO_REASON
            # Activities only grow while a variable is assigned, so its
            # live entry (if any) is still right unless it was bumped.
            act = activity[var]
            if heap_key[var] != act:
                heap_key[var] = act
                heappush(heap, (-act, var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, ties going to the
        lowest index; 0 when every variable is assigned.

        Every unassigned variable has a live heap entry keyed by its
        current activity, so the first live entry of an unassigned
        variable to come off the heap is the answer.
        """
        heap = self._order_heap
        heap_key = self._heap_key
        assign = self._assign
        while heap:
            neg_act, var = heappop(heap)
            if heap_key[var] != -neg_act:
                continue  # superseded by a later push
            heap_key[var] = -1.0
            if assign[var] < 0:
                return var
        return 0

    def _rebuild_heap(self) -> None:
        """Re-key every live entry at its variable's current activity and
        drop the superseded ones; the set of live entries is unchanged."""
        activity = self._activity
        heap_key = self._heap_key
        heap = []
        for v in range(1, self.num_vars + 1):
            if heap_key[v] >= 0.0:
                act = heap_key[v] = activity[v]
                heap.append((-act, v))
        heapify(heap)
        self._order_heap = heap

    # ------------------------------------------------------------------
    # learned clause DB reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Drop the worst half of the learnt clauses, LBD-aware.

        Glue clauses (LBD <= 2), binary clauses (never in the arena)
        and clauses locked as reasons on the trail are always kept; the
        remaining candidates are ranked worst-first by (high LBD, low
        activity).  The arena is compacted afterwards so dead clauses
        free their memory.
        """
        reason = self._reason
        locked = set()
        for ilit in self._trail:
            ref = reason[ilit >> 1]
            if ref >= 0:
                locked.add(ref)
        lbd_of = self._cla_lbd
        cand = [
            ref for ref in self._learnt_refs
            if lbd_of.get(ref, 3) > 2 and ref not in locked
        ]
        if len(cand) < 2:
            return
        act_of = self._cla_act
        cand.sort(key=lambda ref: (-lbd_of.get(ref, 3), act_of.get(ref, 0.0)))
        removed = set(cand[: len(cand) // 2])
        if removed:
            self._compact(removed)

    def _compact(self, removed: set) -> None:
        """Rebuild the arena without ``removed``; remap refs and watches."""
        old = self._ca
        new_ca: List[int] = old[0:4]  # preserve the binary-conflict scratch
        remap: Dict[int, int] = {}

        def copy(ref: int) -> int:
            new_ref = len(new_ca)
            new_ca.extend(old[ref: ref + 2 + old[ref]])
            remap[ref] = new_ref
            return new_ref

        self._clause_refs = [copy(ref) for ref in self._clause_refs]
        new_learnts: List[int] = []
        new_act: Dict[int, float] = {}
        new_lbd: Dict[int, int] = {}
        for ref in self._learnt_refs:
            if ref in removed:
                continue
            new_ref = copy(ref)
            new_act[new_ref] = self._cla_act.get(ref, 0.0)
            new_lbd[new_ref] = self._cla_lbd.get(ref, 3)
            new_learnts.append(new_ref)
        self._ca = new_ca
        self._learnt_refs = new_learnts
        self._cla_act = new_act
        self._cla_lbd = new_lbd
        self._reason = [
            remap[ref] if ref >= 0 else ref for ref in self._reason
        ]
        # Rebuild long-clause watches (binary lists are arena-free and
        # untouched): re-watch every survivor on its first two slots.
        watches: List[List[int]] = [[] for _ in range(len(self._watches))]
        for ref in self._clause_refs:
            l0 = new_ca[ref + 2]
            l1 = new_ca[ref + 3]
            watches[l0].append(l1)
            watches[l0].append(ref)
            watches[l1].append(l0)
            watches[l1].append(ref)
        for ref in new_learnts:
            l0 = new_ca[ref + 2]
            l1 = new_ca[ref + 3]
            watches[l0].append(l1)
            watches[l0].append(ref)
            watches[l1].append(l0)
            watches[l1].append(ref)
        self._watches = watches

    def _analyze_final(self, ilits: Sequence[int]) -> List[int]:
        """Final-conflict analysis (MiniSat's ``analyze_final``).

        Starting from the literals of a conflicting clause (or a single
        falsified assumption literal), walk the reason graph down the
        trail and collect the *decisions* it rests on.  Inside an
        assumption-UNSAT exit every decision on the trail is an
        assumption, so the result — externalized back to DIMACS signs —
        is the failed-assumption core.  Must run before backtracking.
        """
        seen = bytearray(self.num_vars + 1)
        level = self._level
        for ilit in ilits:
            if level[ilit >> 1] > 0:
                seen[ilit >> 1] = 1
        core: List[int] = []
        trail = self._trail
        reason = self._reason
        ca = self._ca
        start = self._trail_lim[0] if self._trail_lim else len(trail)
        for i in range(len(trail) - 1, start - 1, -1):
            ilit = trail[i]
            var = ilit >> 1
            if not seen[var]:
                continue
            seen[var] = 0
            ref = reason[var]
            if ref == _NO_REASON:
                core.append(self._external(ilit))
            elif ref <= _BINARY:
                other = -2 - ref
                if level[other >> 1] > 0:
                    seen[other >> 1] = 1
            else:
                for k in range(ref + 2, ref + 2 + ca[ref]):
                    other = ca[k]
                    if other >> 1 != var and level[other >> 1] > 0:
                        seen[other >> 1] = 1
        return core

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Solve under assumptions with optional budgets."""
        local_conflicts = 0
        local_learned = 0
        local_restarts = 0
        decisions_at_entry = self.decisions
        propagations_at_entry = self.propagations

        def _result(status: SolveStatus, model=None, core=None) -> SolveResult:
            return SolveResult(
                status,
                model=model,
                conflicts=local_conflicts,
                decisions=self.decisions - decisions_at_entry,
                propagations=self.propagations - propagations_at_entry,
                learned=local_learned,
                restarts=local_restarts,
                core=core,
            )

        if not self._ok:
            return _result(SolveStatus.UNSAT, core=[])
        self._backtrack(0)
        conflict = self._propagate()
        if conflict >= 0:
            self._ok = False
            return _result(SolveStatus.UNSAT, core=[])

        for lit in assumptions:
            self.ensure_vars(abs(lit))
        iassumptions = [self._internal(l) for l in assumptions]
        deadline = time.monotonic() + time_limit if time_limit is not None else None
        conflict_budget = max_conflicts
        restart_idx = 1
        restart_limit = 64 * _luby(restart_idx)
        conflicts_since_restart = 0
        max_learnts = max(1000, len(self._clause_refs) // 2)
        decisions_until_poll = 256
        assign = self._assign

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                local_conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return _result(SolveStatus.UNSAT)
                # A conflict below the assumption levels means the
                # assumptions themselves are inconsistent.
                learnt, back_level, lbd = self._analyze(conflict)
                if len(self._trail_lim) <= len(iassumptions):
                    # The conflict is entailed by the assumptions alone:
                    # extract which of them the refutation used before
                    # the trail is unwound.
                    ca = self._ca
                    core = self._analyze_final(
                        ca[conflict + 2: conflict + 2 + ca[conflict]])
                    self._backtrack(0)
                    return _result(SolveStatus.UNSAT, core=core)
                back_level = max(back_level, 0)
                self._backtrack(back_level)
                self.learned += 1
                local_learned += 1
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], _NO_REASON):
                        self._ok = False
                        return _result(SolveStatus.UNSAT)
                elif len(learnt) == 2:
                    # Learnt binaries go straight into the watch lists
                    # (and, like all binaries, are never deleted).
                    self._add_binary(learnt[0], learnt[1])
                    self._enqueue(learnt[0], -2 - learnt[1])
                else:
                    ref = self._new_clause(learnt, learnt=True)
                    self._cla_lbd[ref] = lbd
                    self._bump_clause(ref)
                    self._enqueue(learnt[0], ref)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if conflict_budget is not None and local_conflicts >= conflict_budget:
                    self._backtrack(0)
                    return _result(SolveStatus.UNKNOWN)
                if deadline is not None and local_conflicts % 256 == 0 and time.monotonic() > deadline:
                    self._backtrack(0)
                    return _result(SolveStatus.UNKNOWN)
                if conflicts_since_restart >= restart_limit:
                    restart_idx += 1
                    restart_limit = 64 * _luby(restart_idx)
                    conflicts_since_restart = 0
                    self.restarts += 1
                    local_restarts += 1
                    # Assumption levels are re-created as decisions after
                    # the restart, so a full backtrack is safe.
                    self._backtrack(0)
                if len(self._learnt_refs) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue

            # No conflict: extend assignment.  The deadline is also
            # polled on a decision counter — a low-conflict instance
            # would otherwise never reach the per-conflict check and
            # blow straight past its time limit.
            decisions_until_poll -= 1
            if decisions_until_poll <= 0:
                decisions_until_poll = 256
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    return _result(SolveStatus.UNKNOWN)
            if len(self._trail_lim) < len(iassumptions):
                ilit = iassumptions[len(self._trail_lim)]
                value = self._lit_value(ilit)
                if value == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    # The assumption is already falsified: its negation
                    # is implied by earlier assumptions (or by the
                    # formula itself at level 0).
                    if self._level[ilit >> 1] == 0:
                        core = [self._external(ilit)]
                    else:
                        core = [self._external(ilit)] + self._analyze_final([ilit])
                    self._backtrack(0)
                    return _result(SolveStatus.UNSAT, core=core)
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(ilit, _NO_REASON)
                continue

            var = self._pick_branch_var()
            if var == 0:
                model = [False] * (self.num_vars + 1)
                for v in range(1, self.num_vars + 1):
                    model[v] = assign[v] == 1
                result = _result(SolveStatus.SAT, model=model)
                self._backtrack(0)
                return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            ilit = (var << 1) | (1 - self._phase[var])
            self._enqueue(ilit, _NO_REASON)
