"""Speculative candidate-scheme verification for the CEGAR loop.

The Compass loop walks the taint-scheme lattice one candidate at a
time, but at every refinement signal the *next* candidates are already
known: the scheme the ladder just settled on, and its ladder siblings
at the same location (the schemes a repeat counterexample at that
location would produce).  This module makes "verify one candidate" a
schedulable unit and runs those predictions concurrently:

- :func:`verify_candidate` is the pure verification unit extracted
  from the loop body — instrument, static pre-screen, engine dispatch,
  counterexample extraction — with **no loop state**.  The loop and
  the speculative workers run the exact same function, which is what
  makes speculation *result-transparent*: a worker's verdict is
  consumed only for the precise scheme the sequential walk reaches, so
  the final (scheme, verdict, refinement sequence) is bit-identical to
  the sequential run for any fan-out ``N`` (given deterministic engine
  settings; wall-clock-limited runs are deterministic modulo their
  time limits, exactly like the sequential loop).

- :class:`SpeculativeScheduler` runs candidates on the same
  :class:`~repro.supervise.WorkerPool` as the portfolio: crashed
  workers are relaunched, losers are cancelled on the first refinement
  signal, and a cancelled loser's streamed solves still warm the
  (store-backed) cache for the next iteration.  With ``remote`` set,
  candidates are dispatched to the job daemon as ``candidate`` jobs
  instead; remote cancellation is advisory (an abandoned job completes
  server-side and warms the daemon's store).

Workers run their nested portfolio in forced-sequential mode: daemonic
pool processes cannot spawn children, and a cancel must never leave
orphan grandchildren behind.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.codec import CodecError, dumps, from_doc, to_doc
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
from repro.taint.policies import effective_complexity
from repro.taint.scheme_io import scheme_to_dict
from repro.taint.space import TaintOption, TaintScheme, refinement_ladder
from repro.cegar.backtrace import LocationKind, RefinementLocation

#: Engine label speculative candidate workers report under — fault
#: plans target them with e.g. ``kill_worker("spec", after_solves=1)``.
SPEC_ENGINE = "spec"


def scheme_digest(scheme: TaintScheme) -> str:
    """Content digest of a candidate scheme (the scheduler's slot key)."""
    doc = scheme_to_dict(scheme)
    doc.pop("name", None)  # candidate identity, not its display name
    return hashlib.sha256(dumps(doc, canonical=True)).hexdigest()


@dataclass
class CandidateVerdict:
    """The outcome of verifying one candidate scheme.

    A plain, picklable record: the loop folds it into its stats and
    trajectory identically whether it was computed inline, by a
    speculative worker, or by the job daemon (``source``).
    """

    digest: str
    status: str = "bound_reached"  # proved | counterexample | bound_reached
    counterexample: Optional[Counterexample] = None
    #: Deepest cycle the engines proved clean (folded into the loop's
    #: running bound on non-proved outcomes).
    bound: int = -1
    #: Clean bound donated by an inconclusive static pre-screen
    #: (folded unconditionally, mirroring the inlined loop body).
    static_bound: int = -1
    proved_by: str = ""
    #: Raw engine status for the parent's ``cegar.model-check`` span.
    engine_status: str = ""
    winner: Optional[str] = None  # portfolio winner engine
    static_prescreens: int = 0
    static_proofs: int = 0
    static_cex: int = 0
    static_skipped_bounds: int = 0
    suspects: Tuple[str, ...] = ()
    portfolio: Optional[PortfolioResult] = None
    elapsed: float = 0.0
    source: str = "inline"  # inline | speculative | remote


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
    in_worker: bool = False,
) -> CandidateVerdict:
    """Verify one candidate scheme: the pure unit behind the CEGAR loop.

    Instrument → static pre-screen → engine dispatch → counterexample
    extraction, reproducing the historical loop body exactly, with no
    loop state.  ``time_limit`` is the model-checking wall-clock budget
    for this candidate (the loop passes ``mc_time_limit`` clamped to
    the remaining ``total_time_limit``); ``in_worker`` forces a nested
    portfolio into sequential mode (pool workers are daemonic and must
    not leave grandchildren behind on cancellation).

    Args:
        task: the :class:`~repro.cegar.loop.TaintVerificationTask`.
        scheme: the candidate taint scheme.
        config: a :class:`~repro.cegar.loop.CegarConfig` (engine
            selection and budgets; ``trace``/``solve_cache`` on it are
            ignored — pass ``tracer``/``cache`` explicitly).
        design, prop: optionally the already-instrumented design for
            ``scheme`` (the loop reuses its own instrumentation; a
            worker instruments from scratch — deterministically the
            same result).
    """
    from repro.cegar.loop import instrument_task

    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    span_args = {} if iteration is None else {"iteration": iteration}
    if design is None or prop is None:
        design, prop = instrument_task(task, scheme)
    verdict = CandidateVerdict(digest=scheme_digest(scheme))

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
            verdict.proved_by = "static"
            verdict.elapsed = time.monotonic() - started
            return verdict
        if sres.status == "violation":
            verdict.static_cex = 1
            verdict.status = "counterexample"
            verdict.counterexample = sres.counterexample
            verdict.elapsed = time.monotonic() - started
            return verdict
        verdict.suspects = tuple(sres.suspects)
        verdict.static_bound = sres.bound
        if sres.bound >= 0:
            start_bound = sres.bound + 1
            verdict.static_skipped_bounds = start_bound
            tracer.count("analyze.skipped_bounds", start_bound)

    if config.mc_enabled and config.engine != "static" \
            and config.faults is not None:
        # Injected backend latency (chaos/bench): sleep in whichever
        # process dispatches the model-checking call, so the latency
        # overlaps across processes like a real slow solve service.
        lag = config.faults.solve_delay()
        if lag > 0:
            time.sleep(lag)

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
                force_sequential=in_worker,
            ),
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.portfolio = pres
        verdict.engine_status = pres.status.value
        verdict.winner = pres.winner
        if pres.status is PortfolioStatus.PROVED:
            verdict.status = "proved"
            verdict.proved_by = pres.winner or "portfolio"
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
            verdict.proved_by = "kind"
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
    verdict.elapsed = time.monotonic() - started
    return verdict


# ---------------------------------------------------------------------------
# Candidate prediction
# ---------------------------------------------------------------------------

def ladder_siblings(
    circuit,
    scheme: TaintScheme,
    design,
    location: RefinementLocation,
) -> List[TaintScheme]:
    """Schemes a repeat refinement at ``location`` would settle on.

    After the ladder picked option ``o`` at a CELL location, the next
    counterexample that backtraces to the *same* location walks the
    ladder from ``o`` — producing exactly ``scheme + (location -> o')``
    for some later ladder option ``o'``.  This mirrors
    :func:`repro.cegar.refine.apply_refinement`'s walk (including the
    effective-complexity dedup) so the sibling digests match what the
    loop would instrument.  MODULE and REGISTER refinements are
    terminal at their location: no siblings.
    """
    from repro.hdl.circuit import CircuitError

    if location.kind is not LocationKind.CELL:
        return []
    try:
        cell = circuit.producer(circuit.signal(location.name))
    except CircuitError:
        return []
    if cell is None:
        return []
    current = design.applied_options.get(
        location.name, scheme.option_for_cell(location.name))
    tried = {(current.granularity, effective_complexity(cell.op, current))}
    siblings: List[TaintScheme] = []
    for option in refinement_ladder(current):
        effective = effective_complexity(cell.op, option)
        key = (option.granularity, effective)
        if key in tried:
            continue
        tried.add(key)
        sibling = scheme.copy()
        sibling.refine_cell(location.name, TaintOption(option.granularity,
                                                       effective))
        siblings.append(sibling)
    return siblings


def predict_candidates(
    task,
    scheme: TaintScheme,
    design,
    location: Optional[RefinementLocation],
    limit: int,
) -> List[TaintScheme]:
    """The next speculative wave after a refinement settled on ``scheme``.

    The settled scheme itself leads (the lookahead: the cheapest
    surviving option is what the next model-checking call verifies),
    followed by its ladder siblings at the refinement location,
    cheapest first, capped at ``limit``.
    """
    wave = [scheme]
    if location is not None:
        wave.extend(ladder_siblings(task.circuit, scheme, design, location))
    return wave[:max(1, limit)]


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

@dataclass
class _Slot:
    """One in-flight speculative candidate."""

    digest: str
    scheme: TaintScheme
    state: str = "running"  # running | done | failed | cancelled
    time_limit: Optional[float] = None


class SpeculativeScheduler:
    """First-verdict-wins speculation over candidate taint schemes.

    Lifecycle, from the loop's point of view::

        spec = SpeculativeScheduler(task, config, cache, stats, tracer)
        spec.ensure(scheme, limit)        # iteration start: current scheme
        spec.discard(scheme)              # sim prefilter produced the cex
        v = spec.collect(scheme, limit)   # model-check time; None = miss
        spec.advance(wave, limit)         # refinement settled: next wave
        spec.close()                      # loop exit (any path)

    ``advance`` reconciles the in-flight set against the new wave:
    slots whose candidate survives are *promoted* (kept running), the
    rest are cancelled — first-refinement-signal-wins, mirroring the
    per-property portfolio race.  Local workers run on a
    :class:`~repro.supervise.WorkerPool`, which merges all their solve
    traffic into ``cache`` (losers included) and adopts their tracer
    spans onto the parent timeline.
    """

    def __init__(self, task, config, cache: Optional[SolveCache],
                 stats, tracer: Optional[Tracer] = None,
                 remote: Optional[str] = None) -> None:
        # The stimulus sampler is a closure (unpicklable) and only the
        # sim prefilter uses it — workers never do.
        self.task = replace(task, stimulus_sampler=None)
        self.config = replace(config, trace=None, solve_cache=None,
                              store_dir=None, speculate=0,
                              speculate_remote=None)
        self.cache = cache
        self.stats = stats
        self.tracer = tracer or NULL_TRACER
        self.remote = remote
        self.jobs = max(1, int(config.speculate))
        self._slots: Dict[str, _Slot] = {}
        self._results: Dict[str, CandidateVerdict] = {}
        self._closed = False
        self._pool = None
        if remote is None:
            from repro.supervise import WorkerPool

            self._pool = WorkerPool(
                cache, self.tracer, max_retries=config.max_worker_retries,
                retry_backoff=config.retry_backoff, faults=config.faults)
        else:
            import threading

            self._lock = threading.Lock()
            self._remote_task_doc = to_doc(self.task)

    # -- public API --------------------------------------------------------

    def in_flight(self) -> List[str]:
        """Digests of candidates currently speculated on (for snapshots)."""
        return sorted(d for d, s in self._slots.items() if s.state == "running")

    def snapshot(self) -> Dict[str, Any]:
        """Checkpointable record of the in-flight speculation."""
        return {
            "n": self.jobs,
            "schemes": [self._slots[d].scheme.copy()
                        for d in self.in_flight()],
        }

    def ensure(self, scheme: TaintScheme,
               time_limit: Optional[float] = None) -> None:
        """Make sure ``scheme`` is being speculated on (iteration start).

        Never cancels other slots — siblings in flight may be the next
        wave's candidates.  At capacity, one non-essential slot is
        evicted: the current scheme is the one candidate certain to be
        needed.
        """
        if self._closed:
            return
        self._drain()
        digest = scheme_digest(scheme)
        if digest in self._results or digest in self._slots:
            return
        if len(self._active()) >= self.jobs:
            victim = next((d for d in reversed(list(self._slots))
                           if self._slots[d].state == "running"), None)
            if victim is None:
                return
            self._cancel(victim)
        self._submit(scheme, digest, time_limit)

    def advance(self, wave: List[TaintScheme],
                time_limit: Optional[float] = None) -> None:
        """Reconcile in-flight speculation against the next wave.

        Keeps (promotes) slots whose candidate is in ``wave``, cancels
        the rest, and submits the missing candidates in wave order
        until ``speculate`` slots are busy.
        """
        if self._closed:
            return
        self._drain()
        self.stats.spec_waves += 1
        wanted = {}
        for scheme in wave[:self.jobs]:
            wanted.setdefault(scheme_digest(scheme), scheme)
        for slot in self._active():
            if slot.digest in wanted:
                self.stats.spec_promoted += 1
            else:
                self._cancel(slot.digest)
        for digest, scheme in wanted.items():
            if len(self._active()) >= self.jobs:
                break
            if digest in self._slots or digest in self._results:
                continue
            self._submit(scheme, digest, time_limit)

    def discard(self, scheme: TaintScheme) -> None:
        """Drop the speculation on ``scheme`` (the prefilter beat it)."""
        if self._closed:
            return
        self._drain()
        digest = scheme_digest(scheme)
        if digest in self._slots and self._slots[digest].state == "running":
            self._cancel(digest)
        self._results.pop(digest, None)

    def collect(self, scheme: TaintScheme) -> Optional[CandidateVerdict]:
        """The loop needs this scheme's verdict now; wait for it.

        Returns the speculative :class:`CandidateVerdict` (a hit), or
        None when the candidate was never speculated on or its worker
        failed unrecoverably (a miss — the caller verifies inline).
        """
        if self._closed:
            return None
        digest = scheme_digest(scheme)
        verdict = self._wait(digest)
        if verdict is not None:
            self.stats.spec_hits += 1
            self.tracer.count("speculate.hits")
        else:
            self.stats.spec_misses += 1
            self.tracer.count("speculate.misses")
        return verdict

    def close(self) -> None:
        """Cancel everything in flight and tear the pool down."""
        if self._closed:
            return
        for slot in self._active():
            self._cancel(slot.digest)
        self._drain()
        if self._pool is not None:
            self._pool.close()
        self._closed = True

    # -- submission --------------------------------------------------------

    def _active(self) -> List[_Slot]:
        return [s for s in self._slots.values() if s.state == "running"]

    def _submit(self, scheme: TaintScheme, digest: str,
                time_limit: Optional[float]) -> None:
        slot = _Slot(digest=digest, scheme=scheme.copy(),
                     time_limit=time_limit)
        self._slots[digest] = slot
        self.stats.spec_submitted += 1
        self.tracer.count("speculate.submitted")
        if self._pool is None:
            self._launch_remote(slot)
        else:
            # Nested portfolios run in-process: daemonic pool workers
            # cannot spawn children, and a cancel must never leave
            # orphan grandchildren behind.
            self._pool.submit(digest, partial(verify_candidate, in_worker=True),
                              (self.task, slot.scheme, self.config),
                              budget=time_limit, label=SPEC_ENGINE)

    def _cancel(self, digest: str) -> None:
        self._slots[digest].state = "cancelled"
        self.stats.spec_cancelled += 1
        self.tracer.count("speculate.cancelled")
        if self._pool is not None:
            self._pool.cancel(digest)
        # Remote cancellation is advisory: the daemon completes the job
        # and its verdict warms the daemon-side store; we just stop
        # listening (the submission thread is a daemon thread).

    # -- result plumbing ---------------------------------------------------

    def _drain(self, timeout: float = 0.0) -> None:
        """Pump the pool dry and fold its outcomes into the slots."""
        if self._pool is None:
            return
        outcomes = self._pool.poll(timeout)
        while outcomes:
            for outcome in outcomes:
                slot = self._slots[outcome.key]
                if outcome.status == "retrying":
                    self.stats.spec_crashes += 1
                    self.stats.spec_retries += 1
                    self.tracer.count("speculate.worker_crashes")
                    self.tracer.count("speculate.worker_retries")
                elif outcome.status == "done":
                    slot.state = "done"
                    verdict = outcome.result
                    verdict.source = "speculative"
                    self._results[slot.digest] = verdict
                else:
                    # In-worker exception (deterministic, so not
                    # retried), a wedged worker, or retries exhausted:
                    # a miss, and the loop verifies inline (which
                    # reproduces a real error).
                    slot.state = "failed"
                    if outcome.status == "crashed":
                        self.stats.spec_crashes += 1
                        self.tracer.count("speculate.worker_crashes")
                        self.tracer.count(
                            "speculate.worker_crashes_unrecovered")
            outcomes = self._pool.poll(0.0)

    def _wait(self, digest: str) -> Optional[CandidateVerdict]:
        from repro.supervise import POLL_INTERVAL

        while True:
            if digest in self._results:
                return self._results.pop(digest)
            slot = self._slots.get(digest)
            if slot is None or slot.state in ("cancelled", "failed"):
                return None
            if self._pool is None:
                time.sleep(POLL_INTERVAL)
                continue
            self._drain(timeout=POLL_INTERVAL)

    # -- remote mode -------------------------------------------------------

    def _launch_remote(self, slot: _Slot) -> None:
        import threading

        from repro.serve.jobs import CANDIDATE_FIELDS

        config = {name: getattr(self.config, name)
                  for name in CANDIDATE_FIELDS if name != "mc_time_limit"}
        config["mc_time_limit"] = slot.time_limit
        job = {
            "kind": "candidate",
            "task": self._remote_task_doc,
            "scheme": scheme_to_dict(slot.scheme),
            "config": config,
        }
        threading.Thread(target=self._remote_worker, args=(slot, job),
                         daemon=True).start()

    def _remote_worker(self, slot: _Slot, job: Dict[str, Any]) -> None:
        try:
            from repro.serve.client import connect

            client = connect(self.remote, timeout=slot.time_limit)
            with client:
                reply = client.submit(job, deadline=slot.time_limit)
            # Strict: a result that does not decode, or that answers a
            # different scheme, is a miss, never a default verdict.
            verdict = from_doc(CandidateVerdict, reply["result"]["verdict"])
            if verdict.digest != slot.digest:
                raise CodecError("remote verdict is for another scheme")
            verdict.source = "remote"
        except Exception:
            with self._lock:
                if slot.state == "running":
                    slot.state = "failed"
            return
        with self._lock:
            if slot.state == "running":
                slot.state = "done"
                self._results[slot.digest] = verdict
