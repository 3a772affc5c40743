"""Property-based SAT solver tests: answers against brute force, and the
decision-heap and pick rules over arbitrary solver use."""

import itertools
import random
from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.formal.sat.solver import _HEAP_SLACK, Solver, SolveStatus


def brute_force(num_vars, clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=num_vars):
        def true(lit):
            v = bits[abs(lit) - 1]
            return v if lit > 0 else not v

        if all(true(a) for a in assumptions) and all(
            any(true(l) for l in cl) for cl in clauses
        ):
            return True
    return False


literals = st.integers(min_value=1, max_value=7).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clause = st.lists(literals, min_size=1, max_size=4)
formula = st.lists(clause, min_size=1, max_size=20)


@given(clauses=formula)
@settings(max_examples=150, deadline=None)
def test_solver_matches_brute_force(clauses):
    solver = Solver()
    consistent = all(solver.add_clause(cl) for cl in clauses)
    result = solver.solve() if consistent else None
    got = consistent and result.status is SolveStatus.SAT
    assert got == brute_force(7, clauses)
    if got:
        for cl in clauses:
            assert any(result.lit_true(l) for l in cl)


@given(clauses=formula, assumption_var=st.integers(min_value=1, max_value=7),
       assumption_sign=st.booleans())
@settings(max_examples=80, deadline=None)
def test_solve_under_assumption_then_without(clauses, assumption_var, assumption_sign):
    """Assumptions must not pollute later solves (incremental reuse)."""
    lit = assumption_var if assumption_sign else -assumption_var
    solver = Solver()
    consistent = all(solver.add_clause(cl) for cl in clauses)
    if not consistent:
        return
    first = solver.solve(assumptions=[lit]).status is SolveStatus.SAT
    assert first == brute_force(7, clauses, [lit])
    second = solver.solve().status is SolveStatus.SAT
    assert second == brute_force(7, clauses)


@given(clauses=formula)
@settings(max_examples=60, deadline=None)
def test_model_is_total(clauses):
    solver = Solver()
    if not all(solver.add_clause(cl) for cl in clauses):
        return
    result = solver.solve()
    if result.status is SolveStatus.SAT:
        assert len(result.model) == solver.num_vars + 1


def check_order_heap(solver):
    """The decision-heap rule: each variable has at most one live entry
    (key == its ``_heap_key``), every unassigned variable has exactly
    one, keyed by its current activity, and superseded entries stay
    within the rebuild bound."""
    heap_key = solver._heap_key
    live = Counter(var for neg_act, var in solver._order_heap
                   if heap_key[var] == -neg_act)
    for var in range(1, solver.num_vars + 1):
        if solver._assign[var] < 0:
            assert live[var] == 1, var
            assert heap_key[var] == solver._activity[var], var
        else:
            assert live[var] <= 1, var
    assert len(solver._order_heap) <= _HEAP_SLACK * solver.num_vars


class CheckedSolver(Solver):
    """Checks the heap rule before, and the pick rule after, every pick."""

    def _pick_branch_var(self):
        check_order_heap(self)
        unassigned = [v for v in range(1, self.num_vars + 1) if self._assign[v] < 0]
        # Highest activity, ties to the lowest index.
        expected = min(unassigned, key=lambda v: (-self._activity[v], v), default=0)
        var = super()._pick_branch_var()
        assert var == expected
        return var


HEAP_VARS = 30
heap_literals = st.integers(min_value=1, max_value=HEAP_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("clause"), st.lists(heap_literals, min_size=1, max_size=3)),
        st.tuples(st.just("new_var"), st.none()),
        st.tuples(st.just("solve"), st.lists(heap_literals, max_size=4, unique_by=abs)),
        st.tuples(st.just("budget"), st.integers(min_value=1, max_value=30)),
        # Push the next bump over the rescale threshold.
        st.tuples(st.just("rescale"), st.none()),
    ),
    max_size=12,
)


@given(seed=st.integers(min_value=0, max_value=2**16), ops=heap_ops)
@settings(max_examples=100, deadline=None)
def test_order_heap_keeps_one_live_entry_per_variable(seed, ops):
    """Random 3-SAT near the threshold, then arbitrary clause, variable,
    assumption-solve and budgeted-solve steps on the same solver."""
    rng = random.Random(seed)
    solver = CheckedSolver()
    solver.new_vars(HEAP_VARS)
    for _ in range(125):
        solver.add_clause([rng.choice((v, -v))
                           for v in rng.sample(range(1, HEAP_VARS + 1), 3)])
    for kind, arg in ops:
        if kind == "clause":
            solver.add_clause(arg)
        elif kind == "new_var":
            var = solver.new_var()
            solver.add_clause([var, -rng.randint(1, var - 1), rng.randint(1, var - 1)])
        elif kind == "solve":
            solver.solve(assumptions=arg)
        elif kind == "budget":
            solver.solve(max_conflicts=arg)
        else:
            solver._var_inc = 2e100
        check_order_heap(solver)
