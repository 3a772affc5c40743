"""Verification portfolio over the formal engines.

The paper's Section 4 flow hands each model-checking obligation to
JasperGold, which races several proof engines (``Mp``/``AM``/``I``
unbounded, ``Ht`` bounded) and takes whichever converges first.  This
module reproduces that scheduling layer over our own engines:

- **bmc** — bounded search, definitive on *violations*;
- **pdr** — IC3-family unbounded proof, definitive on both outcomes;
- **kind** — k-induction, definitive on proofs and base-case violations.

:func:`verify_portfolio` runs the engines in-process as a cascade, in
launch order, each under its own wall-clock deadline.  The first
*definitive* verdict wins and the engines behind it never start; the
partial results of the engines that ran (depths proven clean so far)
are folded into the final bound.  The engines share one live solve
cache, so e.g. k-induction answers its base case from the frames BMC
already solved instead of re-solving them.  ``docs/portfolio.md``
records why there is no worker-process race: it never beat this
cascade on any measured workload.

Verdicts are memoized in a :class:`~repro.formal.cache.SolveCache`
keyed on the lowered netlist's content hash, the property, and the
engine parameters, so a CEGAR loop that re-poses an already-answered
question (re-verification, pruning, benchmark reruns) returns
instantly.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.bmc import BmcStatus, _as_lowered, bounded_model_check
from repro.formal.cache import CachedVerdict, SolveCache, solve_key
from repro.formal.certificate import Certificate, check_certificate
from repro.formal.counterexample import Counterexample
from repro.formal.induction import InductionStatus, k_induction
from repro.formal.pdr import PdrStatus, pdr_prove
from repro.formal.properties import SafetyProperty
from repro.obs import NULL_TRACER

#: Engine launch order.  BMC first: it retires quickly on small bounds
#: and its cached frames seed the k-induction base case; PDR second as
#: the strongest unbounded engine; k-induction last (it profits most
#: from running after BMC).
ENGINE_NAMES: Tuple[str, ...] = ("bmc", "pdr", "kind")

#: Engines accepted in ``PortfolioConfig.engines``: the SAT engines
#: above plus the opt-in SAT-free abstract-interpretation engine
#: (:func:`repro.analyze.static_verify`).  ``static`` is deliberately
#: not in the default lineup — it answers a strictly weaker class of
#: questions and is selected explicitly (``--engine static`` or a
#: custom engine tuple) or used as the CEGAR pre-screen.
ALL_ENGINE_NAMES: Tuple[str, ...] = ENGINE_NAMES + ("static",)


class PortfolioStatus(enum.Enum):
    PROVED = "proved"                  # some engine closed an unbounded proof
    COUNTEREXAMPLE = "counterexample"  # some engine found a violation
    BOUND_REACHED = "bound_reached"    # clean up to `bound`, nothing definitive
    UNKNOWN = "unknown"                # every engine timed out with no bound


@dataclass
class PortfolioConfig:
    """Engine selection and budgets."""

    engines: Tuple[str, ...] = ENGINE_NAMES
    max_bound: int = 20                # BMC depth
    induction_max_k: int = 12
    unique_states: bool = True
    pdr_max_frames: int = 50
    #: Overall wall-clock deadline for the whole portfolio call.
    time_limit: Optional[float] = None
    #: Per-engine wall-clock deadlines (seconds); engines not listed
    #: inherit the overall ``time_limit``.  When empty, the scheduler
    #: fair-shares the remaining window over the unfinished engines so
    #: the ones late in the cascade always get a slot.
    engine_deadlines: Dict[str, float] = field(default_factory=dict)
    #: Deterministic per-SAT-call conflict budget (see Solver.solve).
    max_conflicts: Optional[int] = None
    #: BMC skips SAT queries below this depth — the caller (the CEGAR
    #: pre-screen) vouches those cycles are violation-free.
    start_bound: int = 0
    #: Frame budget of the ``static`` engine's bounded ternary pass.
    static_max_frames: int = 64
    #: Validate PDR proof certificates with the independent checker
    #: (:func:`repro.formal.certificate.check_certificate`) before
    #: reporting PROVED; a certificate that fails to check downgrades
    #: the verdict to UNKNOWN instead of shipping an untrusted proof.
    certify: bool = True

    def deadline_for(self, engine: str) -> Optional[float]:
        if engine in self.engine_deadlines:
            return self.engine_deadlines[engine]
        return self.time_limit


@dataclass
class EngineReport:
    """What one engine contributed to a portfolio call."""

    engine: str
    #: Engine status string, ``not_run`` (the cascade stopped before
    #: this engine) or ``cached`` (whole verdict memoized).
    status: str = "not_run"
    bound: int = -1             # deepest cycle this engine proved clean
    elapsed: float = 0.0
    winner: bool = False
    detail: str = ""

    def row(self) -> str:
        mark = " <- winner" if self.winner else ""
        bound = f" bound={self.bound}" if self.bound >= 0 else ""
        return (f"{self.engine:<5} {self.status:<15} "
                f"{self.elapsed:6.2f}s{bound}{mark}")


@dataclass
class PortfolioResult:
    status: PortfolioStatus
    winner: Optional[str] = None
    bound: int = -1
    counterexample: Optional[Counterexample] = None
    elapsed: float = 0.0
    reports: List[EngineReport] = field(default_factory=list)
    mode: str = "sequential"     # "sequential" | "cache"
    cache_hit: bool = False      # whole verdict answered from the cache
    #: PDR's inductive-invariant certificate when it won with a proof.
    certificate: Optional[Certificate] = None
    #: True/False once the independent checker ran; None when there was
    #: no certificate to check (other winner, cache hit, certify off).
    certificate_ok: Optional[bool] = None

    @property
    def proved(self) -> bool:
        return self.status is PortfolioStatus.PROVED

    @property
    def found_cex(self) -> bool:
        return self.status is PortfolioStatus.COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# Engine adapters: run one engine, fill its report.
# ---------------------------------------------------------------------------

#: What a definitive engine hands the result: whether it proved the
#: property, its counterexample, and PDR's invariant certificate.
_Win = Tuple[bool, Optional[Counterexample], Optional[Certificate]]


def _run_engine(
    report: EngineReport,
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    config: PortfolioConfig,
    *,
    time_limit: Optional[float],
    cache: Optional[SolveCache],
    tracer=None,
) -> Optional[_Win]:
    """Run ``report.engine`` and fill ``report`` with what it did.

    Returns ``(proved, counterexample, certificate)`` when the outcome
    settles the property (violation or unbounded proof); None when it
    is partial information (the report's clean bound).
    """
    engine = report.engine
    started = time.monotonic()
    certificate: Optional[Certificate] = None
    if engine == "bmc":
        res = bounded_model_check(
            lowered, prop, max_bound=config.max_bound, time_limit=time_limit,
            start_bound=config.start_bound,
            max_conflicts=config.max_conflicts, cache=cache, tracer=tracer,
        )
        proved = False
        definitive = res.status is BmcStatus.COUNTEREXAMPLE
        report.status, report.bound = res.status.value, res.bound
    elif engine == "kind":
        res = k_induction(
            lowered, prop, max_k=config.induction_max_k, time_limit=time_limit,
            unique_states=config.unique_states,
            max_conflicts=config.max_conflicts, cache=cache, tracer=tracer,
        )
        proved = res.status is InductionStatus.PROVED
        definitive = proved or res.status is InductionStatus.COUNTEREXAMPLE
        report.status, report.bound = res.status.value, res.bound
    elif engine == "pdr":
        res = pdr_prove(
            lowered, prop, max_frames=config.pdr_max_frames, time_limit=time_limit,
            max_conflicts=config.max_conflicts, tracer=tracer,
        )
        proved = res.status is PdrStatus.PROVED
        definitive = proved or res.status is PdrStatus.COUNTEREXAMPLE
        certificate = res.certificate
        # report.bound stays -1: PDR frames are not cycle bounds.
        report.status = res.status.value
    elif engine == "static":
        from repro.analyze import static_verify

        res = static_verify(lowered, prop,
                            max_frames=config.static_max_frames,
                            tracer=tracer)
        proved, definitive = res.proved, res.definitive
        report.status, report.bound = res.status, res.bound
        report.detail = res.reason
        if res.suspects:
            report.detail += f"; {len(res.suspects)} suspects"
    else:
        raise ValueError(f"unknown portfolio engine {engine!r} "
                         f"(expected one of {ENGINE_NAMES})")
    report.elapsed = time.monotonic() - started
    if not definitive:
        return None
    return proved, res.counterexample, certificate


# ---------------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------------

#: Every knob that can change the verdict, including ``certify``: a
#: proof accepted unchecked must not answer a call that requires a
#: checked certificate.
_PROOF_KEY_PARAMS = ("max_bound", "induction_max_k", "unique_states",
                     "pdr_max_frames", "max_conflicts", "start_bound",
                     "static_max_frames", "certify")


def _portfolio_key(lowered: LoweredCircuit, prop: SafetyProperty,
                   config: PortfolioConfig) -> str:
    params = {name: getattr(config, name) for name in _PROOF_KEY_PARAMS}
    params["engines"] = sorted(config.engines)
    return solve_key(lowered, prop, "portfolio", params)


def _finalize(
    reports: Dict[str, EngineReport],
    order: Tuple[str, ...],
    elapsed: float,
    winner: Optional[str] = None,
    proved: bool = False,
    counterexample: Optional[Counterexample] = None,
    certificate: Optional[Certificate] = None,
) -> PortfolioResult:
    bound = max((r.bound for r in reports.values()), default=-1)
    ordered = [reports[name] for name in order]
    if winner is None:
        status = (PortfolioStatus.BOUND_REACHED if bound >= 0
                  else PortfolioStatus.UNKNOWN)
        return PortfolioResult(status, bound=bound, elapsed=elapsed,
                               reports=ordered)
    reports[winner].winner = True
    status = PortfolioStatus.PROVED if proved else PortfolioStatus.COUNTEREXAMPLE
    return PortfolioResult(
        status, winner=winner, bound=bound, counterexample=counterexample,
        elapsed=elapsed, reports=ordered, certificate=certificate,
    )


def _memoize(cache: Optional[SolveCache], key: Optional[str],
             result: PortfolioResult) -> None:
    if cache is None or key is None:
        return
    if result.status is PortfolioStatus.UNKNOWN:
        return  # nothing worth replaying
    cache.put(key, CachedVerdict(
        result.status.value, bound=result.bound,
        counterexample=result.counterexample,
        detail={"winner": result.winner},
    ))


def _count_call(tracer, result: PortfolioResult) -> None:
    """Count one call per engine of its lineup, whether it ran or not:
    ``portfolio.lineup.<engine>`` calls, ``portfolio.seconds.<engine>``
    and ``portfolio.wins.<engine>``."""
    tracer.count("portfolio.calls")
    for report in result.reports:
        tracer.count(f"portfolio.lineup.{report.engine}")
        tracer.count(f"portfolio.seconds.{report.engine}", report.elapsed)
    if result.winner is not None:
        tracer.count(f"portfolio.wins.{result.winner}")


def _from_memo(entry: CachedVerdict, order: Tuple[str, ...]) -> PortfolioResult:
    status = PortfolioStatus(entry.status)
    winner = entry.detail.get("winner")
    reports = [EngineReport(name, status="cached") for name in order]
    return PortfolioResult(
        status, winner=winner, bound=entry.bound,
        counterexample=entry.counterexample,
        elapsed=0.0, reports=reports, mode="cache", cache_hit=True,
    )


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _run_sequential(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    config: PortfolioConfig,
    cache: Optional[SolveCache],
    started: float,
    tracer=None,
) -> PortfolioResult:
    """The cascade: engines run in-process, in order, sharing the cache,
    until one returns a definitive verdict."""
    tracer = tracer or NULL_TRACER
    reports = {name: EngineReport(name) for name in config.engines}
    for position, engine in enumerate(config.engines):
        remaining = None
        if config.time_limit is not None:
            remaining = config.time_limit - (time.monotonic() - started)
            if remaining <= 0:
                break
        deadline = config.deadline_for(engine)
        if not config.engine_deadlines and remaining is not None:
            # Fair share: split what is left of the window over the
            # engines still to run, so one engine cannot starve the
            # ones behind it.
            deadline = remaining / (len(config.engines) - position)
        if deadline is None:
            deadline = remaining
        elif remaining is not None:
            deadline = min(deadline, remaining)
        report = reports[engine]
        with tracer.span("portfolio.engine", cat="portfolio", engine=engine) as span:
            win = _run_engine(report, lowered, prop, config,
                              time_limit=deadline, cache=cache,
                              tracer=tracer)
            span.set(status=report.status)
        if win is not None:
            return _finalize(reports, config.engines,
                             time.monotonic() - started, engine, *win)
    return _finalize(reports, config.engines, time.monotonic() - started)


def verify_portfolio(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    config: Optional[PortfolioConfig] = None,
    cache: Optional[SolveCache] = None,
    tracer=None,
) -> PortfolioResult:
    """Run the verification engines on ``prop``; first definitive wins.

    Args:
        circuit: design under verification (cell- or gate-level).
        prop: the safety property.
        config: engine selection and budgets.
        cache: optional cross-call :class:`SolveCache`; consulted for a
            memoized verdict first, shared by the engines, and updated
            with everything they solve.
        tracer: optional :class:`~repro.obs.Tracer`; one
            ``portfolio.engine`` span per engine that ran, engine frames
            and SAT counters are recorded along with solve-cache
            hit/miss counters and the per-engine ``portfolio.*``
            counters of :func:`_count_call`.

    Returns a :class:`PortfolioResult`; ``reports`` lists what every
    engine did (status, time, partial bound) for observability.
    """
    config = config or PortfolioConfig()
    if not config.engines:
        raise ValueError("portfolio needs at least one engine")
    for engine in config.engines:
        if engine not in ALL_ENGINE_NAMES:
            raise ValueError(f"unknown portfolio engine {engine!r} "
                             f"(expected one of {ALL_ENGINE_NAMES})")
    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    lowered = _as_lowered(circuit, prop)

    key = None
    if cache is not None:
        key = _portfolio_key(lowered, prop, config)
        entry = cache.get(key)
        if entry is not None:
            tracer.count("solve_cache.memo_hits")
            result = _from_memo(entry, config.engines)
            _count_call(tracer, result)
            return result

    stats_before = replace(cache.stats) if cache is not None else None
    result = _run_sequential(lowered, prop, config, cache, started,
                             tracer=tracer)
    if (config.certify and result.status is PortfolioStatus.PROVED
            and result.certificate is not None):
        # Re-check PDR's invariant on a fresh encoding before the
        # verdict leaves the portfolio.  A certificate that does not
        # check means the proof cannot be trusted: downgrade rather
        # than ship it.
        check = check_certificate(lowered, prop, result.certificate)
        result.certificate_ok = bool(check.ok)
        tracer.count("portfolio.certificates_checked")
        if not check.ok:
            tracer.count("portfolio.certificate_failures")
            result.status = PortfolioStatus.UNKNOWN
            for report in result.reports:
                if report.winner:
                    report.winner = False
                    report.detail = f"certificate rejected: {check.reason}"
            result.winner = None
    _memoize(cache, key, result)
    if tracer.enabled and stats_before is not None:
        tracer.count("solve_cache.hits", cache.stats.hits - stats_before.hits)
        tracer.count("solve_cache.misses", cache.stats.misses - stats_before.misses)
        tracer.count("solve_cache.stores", cache.stats.stores - stats_before.stores)
    _count_call(tracer, result)
    return result
