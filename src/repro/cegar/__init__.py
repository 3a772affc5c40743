"""Counterexample-guided taint refinement (paper Sections 4-5).

The CEGAR loop starts from the coarse blackboxing scheme, model checks
the instrumented design, validates counterexamples with an exact
two-copy bounded check, locates imprecision with the backward tracing
algorithm (Algorithm 1, with the fast false-taint test and the
observable-fan-in restriction), and refines the scheme along the
Figure 4 option ladder until the property is proved, a real leak is
found, or the budget runs out.
"""

from repro.cegar.observability import observable_fanins, observable_fanins_exact
from repro.cegar.falsetaint import FastFalseTaintOracle, exact_false_taint_check
from repro.cegar.backtrace import (
    RefinementLocation,
    LocationKind,
    find_refinement_location,
)
from repro.cegar.refine import (
    CorrelationImprecisionAlert,
    apply_refinement,
)
from repro.cegar.loop import (
    CegarConfig,
    CegarResult,
    CegarStatus,
    RefinementStats,
    TaintVerificationTask,
    run_compass,
)
from repro.cegar.checkpoint import (
    CegarCheckpoint,
    CheckpointError,
    CheckpointJournal,
)
from repro.cegar.speculate import (
    CandidateVerdict,
    scheme_digest,
    verify_candidate,
)
from repro.cegar.prune import PruneReport, prune_refinements

__all__ = [
    "observable_fanins",
    "observable_fanins_exact",
    "FastFalseTaintOracle",
    "exact_false_taint_check",
    "RefinementLocation",
    "LocationKind",
    "find_refinement_location",
    "CorrelationImprecisionAlert",
    "apply_refinement",
    "CegarConfig",
    "CegarResult",
    "CegarStatus",
    "RefinementStats",
    "TaintVerificationTask",
    "run_compass",
    "CegarCheckpoint",
    "CheckpointError",
    "CheckpointJournal",
    "CandidateVerdict",
    "scheme_digest",
    "verify_candidate",
    "PruneReport",
    "prune_refinements",
]
