"""SAT-free static analysis over circuits and lowered netlists.

A generic worklist fixpoint engine (:mod:`repro.analyze.lattice`) with
three monotone domains on top:

- :mod:`repro.analyze.constprop` — ternary 0/1/TOP constant
  propagation interpreting the same compiled op stream the SAT encoder
  executes (:mod:`repro.formal.frameprog`);
- :mod:`repro.analyze.ift` — structural taint reachability under a
  candidate scheme's region structure (GLIFT-style ever-tainted
  closure);
- :mod:`repro.analyze.xprop` — uninitialized-register (X) reachability
  pruned by constant facts.

:func:`static_verify` combines them into a solver-free verification
engine: it runs in the portfolio as engine ``static``, pre-screens
candidate schemes in the CEGAR loop, accelerates refinement pruning,
and backs the ``dataflow`` lint rules.
"""

from repro.analyze.constprop import (
    TOP,
    ConstFacts,
    constant_fixpoint,
    eval_frame,
    ternary_frames,
)
from repro.analyze.engine import (
    DEFAULT_MAX_FRAMES,
    StaticVerdict,
    UNKNOWN,
    VERIFIED,
    VIOLATION,
    static_verify,
)
from repro.analyze.ift import TaintReach, suspect_ranking, taint_reachability
from repro.analyze.lattice import FixpointError, FixpointSolver, solve_reachability
from repro.analyze.xprop import XReach, x_reachability, x_sources

__all__ = [
    "TOP",
    "ConstFacts",
    "DEFAULT_MAX_FRAMES",
    "FixpointError",
    "FixpointSolver",
    "StaticVerdict",
    "TaintReach",
    "UNKNOWN",
    "VERIFIED",
    "VIOLATION",
    "XReach",
    "constant_fixpoint",
    "eval_frame",
    "solve_reachability",
    "static_verify",
    "suspect_ranking",
    "taint_reachability",
    "ternary_frames",
    "x_reachability",
    "x_sources",
]
