"""The per-candidate verification unit of the CEGAR loop.

:func:`verify_candidate` verifies one candidate taint scheme —
instrument, static pre-screen, engine dispatch, counterexample
extraction — with **no loop state**.  The loop calls it once per
iteration on the scheme its sequential walk has reached, and folds the
returned :class:`CandidateVerdict` into its statistics and trajectory.
:func:`scheme_digest` is a content digest of a scheme, used to
fingerprint trajectories.  The module keeps its name because callers
outside the package import both from here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.codec import dumps
from repro.formal.bmc import BmcStatus, bounded_model_check
from repro.formal.cache import SolveCache
from repro.formal.counterexample import Counterexample
from repro.formal.induction import InductionStatus, k_induction
from repro.formal.portfolio import (
    PortfolioConfig,
    PortfolioResult,
    PortfolioStatus,
    verify_portfolio,
)
from repro.obs import NULL_TRACER, Tracer
from repro.taint.scheme_io import scheme_to_dict
from repro.taint.space import TaintScheme


def scheme_digest(scheme: TaintScheme) -> str:
    """Content digest of a candidate scheme (its name is ignored)."""
    doc = scheme_to_dict(scheme)
    doc.pop("name", None)  # candidate identity, not its display name
    return hashlib.sha256(dumps(doc, canonical=True)).hexdigest()


@dataclass
class CandidateVerdict:
    """The outcome of verifying one candidate scheme."""

    status: str = "bound_reached"  # proved | counterexample | bound_reached
    counterexample: Optional[Counterexample] = None
    #: Deepest cycle the engines proved clean (folded into the loop's
    #: running bound on non-proved outcomes).
    bound: int = -1
    #: Clean bound donated by an inconclusive static pre-screen
    #: (folded unconditionally, mirroring the inlined loop body).
    static_bound: int = -1
    #: Raw engine status for the parent's ``cegar.model-check`` span.
    engine_status: str = ""
    winner: Optional[str] = None  # portfolio winner engine
    static_prescreens: int = 0
    static_proofs: int = 0
    static_cex: int = 0
    static_skipped_bounds: int = 0
    suspects: Tuple[str, ...] = ()
    portfolio: Optional[PortfolioResult] = None


def verify_candidate(
    task,
    scheme: TaintScheme,
    config,
    *,
    cache: Optional[SolveCache] = None,
    tracer: Optional[Tracer] = None,
    design=None,
    prop=None,
    time_limit: Optional[float] = None,
    iteration: Optional[int] = None,
) -> CandidateVerdict:
    """Verify one candidate scheme: the pure unit behind the CEGAR loop.

    Instrument → static pre-screen → engine dispatch → counterexample
    extraction, reproducing the historical loop body exactly, with no
    loop state.  ``time_limit`` is the model-checking wall-clock budget
    for this candidate (the loop passes ``mc_time_limit`` clamped to
    the remaining ``total_time_limit``).

    Args:
        task: the :class:`~repro.cegar.loop.TaintVerificationTask`.
        scheme: the candidate taint scheme.
        config: a :class:`~repro.cegar.loop.CegarConfig` (engine
            selection and budgets; ``trace``/``solve_cache`` on it are
            ignored — pass ``tracer``/``cache`` explicitly).
        design, prop: optionally the already-instrumented design for
            ``scheme`` (the loop reuses its own instrumentation;
            without it the scheme is instrumented from scratch —
            deterministically the same result).
    """
    from repro.cegar.loop import instrument_task

    tracer = tracer or NULL_TRACER
    span_args = {} if iteration is None else {"iteration": iteration}
    if design is None or prop is None:
        design, prop = instrument_task(task, scheme)
    verdict = CandidateVerdict()

    start_bound = 0
    if config.mc_enabled and (config.static_prescreen
                              or config.engine == "static"):
        from repro.analyze import static_verify

        with tracer.span("cegar.analyze", cat="mc", **span_args) as asp:
            sres = static_verify(
                design.circuit, prop,
                max_frames=config.static_max_frames, tracer=tracer,
            )
            asp.set(status=sres.status, bound=sres.bound)
        verdict.static_prescreens = 1
        tracer.count("analyze.prescreens")
        if sres.proved:
            verdict.static_proofs = 1
            verdict.status = "proved"
            return verdict
        if sres.status == "violation":
            verdict.static_cex = 1
            verdict.status = "counterexample"
            verdict.counterexample = sres.counterexample
            return verdict
        verdict.suspects = tuple(sres.suspects)
        verdict.static_bound = sres.bound
        if sres.bound >= 0:
            start_bound = sres.bound + 1
            verdict.static_skipped_bounds = start_bound
            tracer.count("analyze.skipped_bounds", start_bound)

    if not config.mc_enabled or config.engine == "static":
        pass  # no model checker to consult; stop at the bound
    elif config.engine == "portfolio":
        pres = verify_portfolio(
            design.circuit, prop,
            PortfolioConfig(
                engines=config.portfolio_engines,
                jobs=config.jobs,
                max_bound=config.max_bound,
                induction_max_k=config.induction_max_k,
                unique_states=config.unique_states,
                pdr_max_frames=config.pdr_max_frames,
                time_limit=time_limit,
                max_conflicts=config.max_conflicts,
                start_bound=start_bound,
                static_max_frames=config.static_max_frames,
                certify=config.certify,
                max_worker_retries=config.max_worker_retries,
                retry_backoff=config.retry_backoff,
                faults=config.faults,
            ),
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.portfolio = pres
        verdict.engine_status = pres.status.value
        verdict.winner = pres.winner
        if pres.status is PortfolioStatus.PROVED:
            verdict.status = "proved"
        elif pres.status is PortfolioStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = pres.counterexample
        verdict.bound = pres.bound
    elif config.use_induction:
        ind = k_induction(
            design.circuit, prop,
            max_k=config.induction_max_k,
            time_limit=time_limit,
            unique_states=config.unique_states,
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.engine_status = ind.status.value
        if ind.status is InductionStatus.PROVED:
            verdict.status = "proved"
        elif ind.status is InductionStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = ind.counterexample
            verdict.bound = ind.bound
        else:
            # Induction inconclusive: fall back to plain BMC for depth.
            bmc = bounded_model_check(
                design.circuit, prop,
                max_bound=config.max_bound, time_limit=time_limit,
                start_bound=start_bound,
                cache=cache,
                tracer=tracer if tracer is not NULL_TRACER else None,
            )
            if bmc.status is BmcStatus.COUNTEREXAMPLE:
                verdict.status = "counterexample"
                verdict.counterexample = bmc.counterexample
            verdict.bound = bmc.bound
    else:
        bmc = bounded_model_check(
            design.circuit, prop,
            max_bound=config.max_bound, time_limit=time_limit,
            start_bound=start_bound,
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.engine_status = bmc.status.value
        if bmc.status is BmcStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = bmc.counterexample
        verdict.bound = bmc.bound
    return verdict
