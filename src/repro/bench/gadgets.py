"""Attack gadget programs used by tests, examples and benchmarks.

All gadgets assume the formal memory layout: a small word-addressed
data memory whose top ``secret_words`` addresses hold the secret
(address 6 is secret in the default 8-word / 2-secret configuration).
Each is *architecturally* silent — the branch is always taken, so no
secret is ever architecturally read — which is exactly what makes the
transient leak a contract violation.
"""

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cores.isa import assemble

if TYPE_CHECKING:
    from repro.formal.counterexample import Counterexample

#: Spectre-style gadget: a transient load reads the secret, a dependent
#: transient load turns its value into a data-memory *address* (visible
#: on the dmem-address observation).  Leaks on BOOM; blocked on BOOM-S
#: (loads wait for branch resolution) and on correct ProSpeCT (the
#: secret-valued address operand is gated); leaks again under ProSpeCT
#: bug 1 (the gate consults the wrong register's secret bit).
SPECTRE_GADGET = assemble("""
    beq r0, r0, skip     # architecturally always taken
    lw  r1, 6(r0)        # transient: secret value into r1
    lw  r2, 0(r1)        # transient: secret-dependent address
skip:
    halt
""")

#: Multiplier timing gadget: a transient MUL with a secret multiplier
#: operand; the early-exit multiplier's latency depends on the value,
#: shifting the PC/commit timing (a pure timing channel).
MUL_TIMING_GADGET = assemble("""
    beq r0, r0, skip
    lw  r1, 6(r0)        # transient: secret into r1
    mul r2, r0, r1       # rs2 secret -> data-dependent latency
skip:
    halt
""")

#: Nested-branch gadget for ProSpeCT bug 2: the outer branch (never
#: taken, correctly predicted) resolves first and — in the buggy
#: design — clears the transient flag of the blocked secret-address
#: load even though the inner (mispredicted) branch is still in flight.
NESTED_BRANCH_GADGET = assemble("""
    bne r1, r1, 1        # outer: never taken, resolves without squash
    beq r0, r0, skip     # inner: taken -> mispredicted
    lw  r1, 6(r0)        # transient: secret value
    lw  r2, 0(r1)        # transient: secret address (gated unless bug 2)
skip:
    halt
""")


@dataclass
class GadgetCheck:
    """Outcome of :func:`check_gadget`."""

    #: The deepest cycle proven free of sink taint, or the cycle the
    #: counterexample reaches.
    bound: int
    #: Wall time of the directed model check, in seconds.
    elapsed: float
    #: The violating trace, with the program pinned in its initial
    #: state; None when the core is secure on the gadget up to ``bound``.
    counterexample: Optional["Counterexample"] = None
    #: The sink tainted in the counterexample's last cycle.
    sink: str = ""
    #: The exact two-copy check found the secret really reaches ``sink``.
    real: bool = False


def check_gadget(core, program: List[int], max_bound: int,
                 time_limit: Optional[float] = None) -> GadgetCheck:
    """Directed formal check of one gadget (paper Appendix C).

    ``program`` is pinned into the instruction memory of ``core``,
    instrumented with precise taint (CellIFT, the core's precise
    modules included), and bounded model checking searches for a cycle
    in which an observation sink is tainted.  A counterexample is
    replayed on the instrumented design to find that sink, and the exact
    two-copy check then tells a real leak from spurious taint.
    """
    from repro.cegar.falsetaint import exact_false_taint_check
    from repro.cegar.loop import instrument_task
    from repro.contracts import make_contract_task
    from repro.formal import BmcStatus, SafetyProperty, bounded_model_check
    from repro.taint import cellift_scheme

    task = make_contract_task(core)
    scheme = cellift_scheme()
    for module in core.precise_modules:
        scheme.module_defaults[module] = scheme.default
    design, prop = instrument_task(task, scheme)
    pinned = core.initial_state_for(program)
    free = frozenset(set(task.symbolic_registers) - set(core.imem_words))
    directed = SafetyProperty(prop.name, prop.bad, prop.assumptions,
                              prop.init_assumptions, free)
    started = time.monotonic()
    result = bounded_model_check(design.circuit, directed, max_bound=max_bound,
                                 time_limit=time_limit, initial_values=pinned)
    elapsed = time.monotonic() - started
    if result.status is not BmcStatus.COUNTEREXAMPLE:
        return GadgetCheck(result.bound, elapsed)
    cex = result.counterexample.with_initial_state(pinned)
    taint_wf = cex.replay(design.circuit)
    last = taint_wf.length - 1
    sink = next(s for s in core.sinks
                if taint_wf.value(design.taint_name[s], last))
    real = not exact_false_taint_check(
        core.circuit, cex, task.secret_registers(), sink,
        init_assumption_outputs=core.init_assumption_outputs,
    )
    return GadgetCheck(last, elapsed, cex, sink, real)
