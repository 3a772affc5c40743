"""The Compass CEGAR loop (paper Figure 1 / Figure 3, Section 4).

``run_compass`` drives the whole flow:

1. *Taint initialization* — start from the blackboxing scheme (one
   sticky taint bit per module, naive logic elsewhere).
2. *Model checking and counterexample validation* — k-induction /
   BMC on the instrumented design; counterexamples are validated with
   the exact two-copy bounded check.
3. *Taint refinement* — the backtracing algorithm finds a location;
   options are substituted in the Figure 4 order; the counterexample is
   re-simulated until its spurious taint is blocked; then back to 2.

Statistics mirror Table 3: number of counterexamples eliminated, number
of refinements, and the t_MC / t_Simu / t_BT / t_Gen runtime breakdown.
They are a view of the run's tracer: its counters and the seconds of
its ``mc`` / ``simu`` / ``bt`` / ``gen`` spans (:class:`RefinementStats`).
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
import time
import warnings
from array import array
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.faults import FaultPlan
from repro.hdl.circuit import Circuit
from repro.formal.cache import CacheStats, SolveCache
from repro.formal.counterexample import Counterexample
from repro.formal.portfolio import ENGINE_NAMES
from repro.formal.properties import SafetyProperty
from repro.obs import NullTracer, Tracer
from repro.taint.instrument import InstrumentedDesign, TaintSources, instrument
from repro.taint.space import TaintScheme, blackbox_scheme
from repro.cegar.backtrace import find_refinement_location
from repro.cegar.falsetaint import (
    ExactValidator,
    FastFalseTaintOracle,
    SecretSpec,
    exact_false_taint_check,
)
from repro.cegar.refine import CorrelationImprecisionAlert, apply_refinement

if TYPE_CHECKING:
    from repro.store.store import StoreStats


@dataclass(frozen=True)
class TaintVerificationTask:
    """One verification task: design, taint sources, sinks, assumptions.

    Attributes:
        circuit: the design under verification (may already include
            shadow logic such as the ISA reference machine).
        sources: which registers/inputs start tainted (the secret).
        sinks: original signal names that must stay untainted (the
            attacker-observable microarchitectural observation).
        clean_assumptions: signals whose *taint* is assumed 0 at every
            cycle (the contract constraint check: the ISA machine's
            architectural observation must not be tainted).
        gated_clean_assumptions: pairs (condition signal, value signal);
            assumed: never (condition == 1 and value's taint != 0).
        assumption_outputs: 1-bit design signals assumed 1 every cycle
            (environment constraints, e.g. "no external interrupts").
        init_assumption_outputs: 1-bit design signals assumed 1 at the
            initial state only (e.g. "ISA-machine memory equals DUV
            memory at reset").
        symbolic_registers: registers whose initial value is universally
            quantified (program memory, secret and public data, ...).
        blackbox_modules: modules for the initial blackboxing scheme
            (default: every module path in the design).
        precise_modules: module subtrees pinned at CellIFT (bit/full)
            precision and never blackboxed — used for shadow logic such
            as the ISA reference machine.
        stimulus_sampler: optional ``fn(rng, depth) -> (initial_state,
            input_frames)`` producing random environments that satisfy
            the task's *init* assumptions by construction; used by the
            simulation prefilter (the paper's simulation-based testing
            mode) to find counterexamples cheaply before invoking the
            model checker.
    """

    name: str
    circuit: Circuit
    sources: TaintSources
    sinks: Tuple[str, ...]
    clean_assumptions: Tuple[str, ...] = ()
    gated_clean_assumptions: Tuple[Tuple[str, str], ...] = ()
    assumption_outputs: Tuple[str, ...] = ()
    init_assumption_outputs: Tuple[str, ...] = ()
    symbolic_registers: FrozenSet[str] = frozenset()
    blackbox_modules: Optional[Tuple[str, ...]] = None
    precise_modules: Tuple[str, ...] = ()
    stimulus_sampler: Optional[object] = field(
        default=None, compare=False)  # code

    def initial_scheme(self) -> TaintScheme:
        from repro.taint.space import Complexity, Granularity, TaintOption

        modules = self.blackbox_modules
        if modules is None:
            modules = tuple(
                m for m in sorted(self.circuit.module_paths())
                if not any(m == p or m.startswith(p + ".") for p in self.precise_modules)
            )
        scheme = blackbox_scheme(modules, name=f"{self.name}-blackbox")
        for module in self.precise_modules:
            scheme.module_defaults[module] = TaintOption(Granularity.BIT, Complexity.FULL)
        return scheme

    def secret_registers(self) -> Tuple[str, ...]:
        return tuple(self.sources.registers)


@dataclass
class CegarConfig:
    """Budgets and knobs for the CEGAR loop."""

    max_bound: int = 20                  # BMC depth per model-checking call
    mc_time_limit: Optional[float] = None
    use_induction: bool = True
    induction_max_k: int = 12
    unique_states: bool = True
    max_counterexamples: int = 50
    max_refinements: int = 400
    #: How many alternative refinement locations to try for one stuck
    #: counterexample before declaring correlation imprecision.
    max_location_retries: int = 8
    total_time_limit: Optional[float] = None
    exact_validation: bool = True
    seed: Optional[int] = 0
    #: Simulation prefilter: try random stimuli on the instrumented
    #: design before each model-checking call (paper Section 6.2's
    #: simulation-based testing, used here to accelerate refinement).
    sim_prefilter: bool = True
    sim_trials: int = 48
    sim_depth: int = 12
    #: Refinement-by-testing mode: when False, no model checker is ever
    #: invoked — counterexamples come from random simulation only and the
    #: loop ends when simulation finds nothing (cheap scheme derivation
    #: for the simulation-oriented experiments of Section 6.2).
    mc_enabled: bool = True
    #: Fail fast: run the structural/scheme lint rules over the task's
    #: circuit and initial scheme before the loop starts, raising
    #: :class:`repro.lint.LintError` on errors instead of spending the
    #: model-checking budget on an ill-formed task.
    lint_on_entry: bool = True
    #: Model-checking engine: "sequential" is the classic k-induction /
    #: BMC cascade above; "portfolio" runs BMC, PDR and k-induction in
    #: turn (:mod:`repro.formal.portfolio`) with a shared solve cache,
    #: stopping at the first definitive verdict; "static" answers
    #: from the SAT-free abstract interpreter only
    #: (:func:`repro.analyze.static_verify`) — inconclusive iterations
    #: end the loop at the ternary bound, like ``mc_enabled=False``.
    engine: str = "sequential"
    #: Run the static analyzer before every model-checking call:
    #: a ``verified``/``violation`` verdict skips SAT entirely, and an
    #: inconclusive one still donates its proven-clean bound so BMC
    #: skips the shallow solves.  What it did is counted in the
    #: ``analyze.*`` counters of :attr:`RefinementStats.counters`.
    static_prescreen: bool = False
    #: Frame budget for the static engine's bounded ternary pass.
    static_max_frames: int = 64
    #: Unused; kept because perfbench/workloads.py still sets it.
    jobs: int = 0
    #: Portfolio only: which engines participate, in launch order.
    portfolio_engines: Tuple[str, ...] = ENGINE_NAMES
    #: Portfolio only: PDR frame limit per model-checking call.
    pdr_max_frames: int = 50
    #: Portfolio only: deterministic per-SAT-call conflict budget.
    max_conflicts: Optional[int] = None
    #: Portfolio only: validate each PDR proof's inductive-invariant
    #: certificate with the independent checker before accepting the
    #: verdict; a rejected certificate downgrades the call to UNKNOWN.
    certify: bool = True
    #: Portfolio only: verdict cache shared across model-checking calls
    #: (and, when injected, across runs).  None builds a fresh cache
    #: per ``run_compass`` call.
    solve_cache: Optional[SolveCache] = None
    #: Portfolio only: capacity of the per-run cache when none is given.
    cache_max_entries: int = 4096
    #: Persistent solve store (:mod:`repro.store`): when set (and no
    #: ``solve_cache`` was injected), ``run_compass`` opens the store
    #: read-write, seeds a store-backed cache from it, and persists
    #: every new verdict, so a rerun answers the already-decided solves
    #: from disk.  A locked or corrupt store degrades gracefully to an
    #: in-memory cache with a warning — persistence is never allowed to
    #: fail a verify.  Deliberately absent from the checkpoint config
    #: digest: where verdicts are stored does not shape the trajectory.
    store_dir: Optional[str] = None
    #: Observability: a :class:`repro.obs.Tracer` that records phase
    #: spans (model-check / simulate / backtrace / generate), engine
    #: frames and SAT counters for this run.  None runs untraced, on a
    #: fresh :class:`repro.obs.NullTracer` that keeps the counters and
    #: span seconds the Table-3 statistics are read from.
    trace: Optional[Tracer] = None
    #: Checkpointing: how many journal entries ``run_compass`` keeps
    #: when a ``checkpoint_dir`` is given (>= 2 so corruption of the
    #: newest entry can fall back to its predecessor).
    checkpoint_keep: int = 4
    #: Deterministic fault-injection plan (:mod:`repro.faults`),
    #: threaded into the checkpoint journal and the solve store.
    #: None (the default) injects nothing; tests use this to prove the
    #: recovery paths.
    faults: Optional[FaultPlan] = None


#: Key prefix of a span category's seconds in
#: :attr:`RefinementStats.counters` (``time.mc`` is t_MC).
TIME_PREFIX = "time."


@dataclass
class RefinementStats:
    """Table 3 statistics, read from the run's books.

    ``counters`` holds the run's tracer counter totals and, under
    ``time.<category>``, the seconds of its outermost spans per
    category.  On a resumed run they are the checkpoint's counters plus
    the resumed run's own.  Everything else here is a read-only view of
    them, so the statistics and the run's trace cannot disagree.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    refinement_log: List[str] = field(default_factory=list)
    #: The spurious counterexamples the loop eliminated, kept for the
    #: unnecessary-refinement pruning pass (paper Section 6.5).
    eliminated: List[Counterexample] = field(default_factory=list)
    #: On a resumed run, the iteration the checkpoint journal restored.
    resumed_from: Optional[int] = None
    #: The solve cache's live counters (None when the run had no cache).
    cache: Optional[CacheStats] = None
    #: Persistent-store observability: a snapshot of the
    #: :class:`repro.store.StoreStats` counters when the run used a
    #: ``store_dir`` (entries loaded/persisted, recovery events, hits
    #: served from disk).  None when no store was attached.
    store: Optional[StoreStats] = None

    def count(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def seconds(self, category: str) -> float:
        return self.counters.get(TIME_PREFIX + category, 0.0)

    counterexamples_eliminated = property(
        lambda self: self.count("cegar.counterexamples_eliminated"))
    refinements = property(lambda self: self.count("cegar.refinements"))
    t_mc = property(lambda self: self.seconds("mc"))
    t_simu = property(lambda self: self.seconds("simu"))
    t_bt = property(lambda self: self.seconds("bt"))
    t_gen = property(lambda self: self.seconds("gen"))

    @property
    def total(self) -> float:
        return self.t_mc + self.t_simu + self.t_bt + self.t_gen

    def row(self, name: str) -> str:
        return (
            f"{name:<12} CEX={self.counterexamples_eliminated:<3} "
            f"refinements={self.refinements:<4} "
            f"t_MC={self.t_mc:6.2f}s t_Simu={self.t_simu:6.2f}s "
            f"t_BT={self.t_bt:6.2f}s t_Gen={self.t_gen:6.2f}s"
        )

    def engines(self) -> List[Tuple[str, float, int]]:
        """``(engine, seconds, wins)`` for every engine in the portfolio
        lineup, including the ones that never ran."""
        prefix = "portfolio.lineup."
        names = sorted(key[len(prefix):] for key in self.counters
                       if key.startswith(prefix))
        return [(name, self.counters.get(f"portfolio.seconds.{name}", 0.0),
                 self.count(f"portfolio.wins.{name}")) for name in names]

    def portfolio_rows(self) -> List[str]:
        """Human-readable portfolio/cache summary (empty when unused)."""
        calls = self.count("portfolio.calls")
        if not calls:
            return []
        engines = " ".join(f"{name}={seconds:.2f}s(+{wins} wins)"
                           for name, seconds, wins in self.engines())
        rows = [f"portfolio: {calls} calls  {engines}"]
        checked = self.count("portfolio.certificates_checked")
        if checked:
            rows.append(f"certificates: {checked} checked, "
                        f"{self.count('portfolio.certificate_failures')} rejected")
        if self.cache is not None:
            rows.append(self.cache.row())
        return rows

    def analyze_rows(self) -> List[str]:
        """Static pre-screen summary lines (empty when unused)."""
        runs = self.count("analyze.prescreens")
        if not runs:
            return []
        return [
            f"static pre-screen: {runs} runs, "
            f"{self.count('analyze.prescreen_proofs')} proofs, "
            f"{self.count('analyze.prescreen_violations')} definite "
            f"violations, {self.count('analyze.skipped_bounds')} SAT bounds skipped"
        ]

    def robustness_rows(self) -> List[str]:
        """Checkpoint/resume summary lines (empty when unused)."""
        rows = []
        if self.resumed_from is not None:
            rows.append(f"resumed from checkpoint at iteration "
                        f"{self.resumed_from}")
        checkpoints = self.count("cegar.checkpoints")
        if checkpoints:
            rows.append(f"checkpoints written: {checkpoints}")
        if self.store is not None:
            rows.append(self.store.row())
        return rows


class CegarStatus(enum.Enum):
    PROVED = "proved"                    # unbounded proof
    BOUND_REACHED = "bound_reached"      # bounded proof up to `bound`
    REAL_LEAK = "real_leak"              # valid counterexample
    CORRELATION_ALERT = "correlation_alert"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class CegarResult:
    status: CegarStatus
    task: TaintVerificationTask
    scheme: TaintScheme
    design: InstrumentedDesign
    prop: SafetyProperty
    stats: RefinementStats
    bound: int = -1
    leak: Optional[Counterexample] = None
    alert: Optional[CorrelationImprecisionAlert] = None
    verify_time: float = 0.0             # t_veri: final model-checking time

    @property
    def secure(self) -> bool:
        return self.status in (CegarStatus.PROVED, CegarStatus.BOUND_REACHED)


def instrument_task(
    task: TaintVerificationTask, scheme: TaintScheme
) -> Tuple[InstrumentedDesign, SafetyProperty]:
    """Instrument the task's design and build the safety property."""
    design = instrument(task.circuit, scheme, task.sources)
    return design, attach_property(task, design)


def attach_property(
    task: TaintVerificationTask, design: InstrumentedDesign
) -> SafetyProperty:
    """Add the task's sink/assumption monitors to ``design`` in place and
    return the safety property over them.

    Monitor cells only read taint signals, so a design that was already
    simulated (a refinement's candidate) keeps every recorded value.
    """
    bad = design.add_taint_monitor(task.sinks, out_name="__compass_bad")
    assumptions: List[str] = list(task.assumption_outputs)
    if task.clean_assumptions:
        assumptions.append(
            design.add_zero_taint_monitor(task.clean_assumptions, out_name="__compass_clean")
        )
    if task.gated_clean_assumptions:
        assumptions.append(
            design.add_gated_clean_monitor(
                task.gated_clean_assumptions, out_name="__compass_gated_clean"
            )
        )
    return SafetyProperty(
        name=task.name,
        bad=bad,
        assumptions=tuple(assumptions),
        init_assumptions=tuple(task.init_assumption_outputs),
        symbolic_registers=frozenset(task.symbolic_registers),
    )


def _tainted_sink(
    design: InstrumentedDesign, waveform, sinks: Sequence[str], cycle: int
) -> Optional[str]:
    for sink in sinks:
        taint_name = design.taint_name.get(sink)
        if taint_name and waveform.value(taint_name, cycle) != 0:
            return sink
    return None


def simulate_for_counterexample(
    task: TaintVerificationTask,
    design: InstrumentedDesign,
    prop: SafetyProperty,
    trials: int,
    depth: int,
    rng: random.Random,
) -> Optional[Counterexample]:
    """Random-stimulus search for a property violation (sim prefilter).

    Runs the instrumented design on random environments; a trial yields
    a counterexample when the ``bad`` signal fires in a cycle where all
    per-cycle assumptions held so far.  Environments come from the
    task's ``stimulus_sampler`` when provided (which guarantees the
    init assumptions hold); otherwise symbolic registers and inputs are
    sampled uniformly and trials violating init assumptions are skipped.

    Trials are judged in order: a strictly shorter violation replaces
    the best so far, and the search stops drawing once the best is at
    most 3 cycles long.  All trials are drawn up front and simulated as
    the lanes of one :class:`~repro.sim.batch.BatchSimulator`; the RNG
    is then rewound to just after the last trial that one-at-a-time
    search would have drawn, so the result and the RNG state equal it.
    """
    circuit = design.circuit
    input_names = [sig.name for sig in circuit.inputs]
    reg_widths = {reg.q.name: reg.q.width for reg in circuit.registers}
    symbolic = [name for name in sorted(task.symbolic_registers) if name in reg_widths]

    draws: List[Tuple[Dict[str, int], List[Dict[str, int]]]] = []
    # The RNG state after each trial's draw, packed: a ``getstate()``
    # tuple boxes 625 ints (~24 KB); 48 of them would outweigh the
    # whole prefilter's other allocations.
    state_after: List[Tuple[array, object]] = []
    for _ in range(trials):
        if task.stimulus_sampler is not None:
            init, frames = task.stimulus_sampler(rng, depth)
            frames = [
                {name: frame.get(name, rng.getrandbits(circuit.signal(name).width))
                 for name in input_names}
                for frame in frames
            ]
        else:
            init = {name: rng.getrandbits(reg_widths[name]) for name in symbolic}
            frames = [
                {name: rng.getrandbits(circuit.signal(name).width)
                 for name in input_names}
                for _ in range(depth)
            ]
        draws.append((init, frames))
        version, internal, gauss_next = rng.getstate()
        state_after.append((array("I", internal), gauss_next))
    if not draws:
        return None

    lengths = _violation_lengths(circuit, prop, draws)
    best: Optional[int] = None
    used = 0
    for trial, length in enumerate(lengths):
        if best is not None and lengths[best] <= 3:
            break  # shallow enough; deeper search will not beat it much
        used += 1
        if length is not None and (best is None or length < lengths[best]):
            best = trial
    internal, gauss_next = state_after[used - 1]
    rng.setstate((version, tuple(internal), gauss_next))
    if best is None:
        return None
    init, frames = draws[best]
    return Counterexample(
        length=lengths[best],
        inputs=[dict(f) for f in frames[:lengths[best]]],
        initial_state=dict(init),
        bad_signal=prop.bad,
    )


def _violation_lengths(
    circuit: Circuit,
    prop: SafetyProperty,
    draws: Sequence[Tuple[Dict[str, int], List[Dict[str, int]]]],
) -> List[Optional[int]]:
    """Per trial, the first cycle count at which ``bad`` fires, or None.

    A trial stops at its first cycle violating an assumption (the init
    assumptions count in cycle 0 only) and at the end of its stimulus.
    Each trial is one lane; a lane that has stopped gets all-zero
    frames.  Once some trial fires, later trials are dropped: whatever
    they would still fire is longer, so in-order selection never picks
    them.
    """
    from repro.sim.batch import BatchSimulator

    lengths: List[Optional[int]] = [None] * len(draws)
    live = sum(1 << lane for lane, (_init, frames) in enumerate(draws) if frames)
    if not live:
        return lengths
    sim = BatchSimulator(circuit, lanes=len(draws),
                         initial_states=[init for init, _ in draws])
    idle = {sig.name: 0 for sig in circuit.inputs}
    t = 0
    while live:
        sim.advance([frames[t] if (live >> lane) & 1 else idle
                     for lane, (_init, frames) in enumerate(draws)])
        ok = live
        if t == 0:
            for name in prop.init_assumptions:
                ok &= _nonzero_lanes(sim, name)
        for name in prop.assumptions:
            ok &= _nonzero_lanes(sim, name)
        hit = ok & _nonzero_lanes(sim, prop.bad)
        live = ok & ~hit
        if hit:
            for lane in range(len(draws)):
                if (hit >> lane) & 1:
                    lengths[lane] = t + 1
            live &= (hit & -hit) - 1
        t += 1
        for lane, (_init, frames) in enumerate(draws):
            if len(frames) == t:
                live &= ~(1 << lane)
    return lengths


def _nonzero_lanes(sim, name: str) -> int:
    """Mask of the lanes in which signal ``name`` is non-zero."""
    acc = 0
    for plane in sim.peek_planes(name):
        acc |= plane
    return acc


def _config_digest(task: TaintVerificationTask, config: CegarConfig) -> str:
    """Fingerprint of the knobs that shape a run's trajectory.

    Stored in every checkpoint; a resume under different knobs would
    silently diverge from the interrupted run, so it is rejected.
    Budget-only knobs (wall-clock limits) and observability knobs are
    deliberately excluded — resuming with a fresh time budget is the
    whole point.
    """
    doc = {
        "task": task.name,
        "engine": config.engine,
        "max_bound": config.max_bound,
        "use_induction": config.use_induction,
        "induction_max_k": config.induction_max_k,
        "unique_states": config.unique_states,
        "max_counterexamples": config.max_counterexamples,
        "max_refinements": config.max_refinements,
        "max_location_retries": config.max_location_retries,
        "exact_validation": config.exact_validation,
        "seed": config.seed,
        "sim_prefilter": config.sim_prefilter,
        "sim_trials": config.sim_trials,
        "sim_depth": config.sim_depth,
        "mc_enabled": config.mc_enabled,
        "portfolio_engines": list(config.portfolio_engines),
        "pdr_max_frames": config.pdr_max_frames,
        "max_conflicts": config.max_conflicts,
        "certify": config.certify,
        "static_prescreen": config.static_prescreen,
        "static_max_frames": config.static_max_frames,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def run_compass(
    task: TaintVerificationTask,
    config: Optional[CegarConfig] = None,
    initial_scheme: Optional[TaintScheme] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> CegarResult:
    """Run the full Compass CEGAR loop on a verification task.

    When ``config.store_dir`` is set (and no explicit ``solve_cache``
    was injected), the persistent solve store at that directory backs
    the run's cache: verdicts decided by earlier runs are answered from
    disk and every new verdict is persisted for the next run.  Store
    trouble — held by a live process, unreadable format, full disk —
    degrades to an in-memory cache with a warning; it never fails the
    verify.  ``result.stats.store`` carries the store counters.
    """
    config = config or CegarConfig()
    if config.store_dir is None or config.solve_cache is not None:
        return _run_compass_inner(task, config, initial_scheme,
                                  checkpoint_dir, resume)
    from repro.store import SolveStore, StoreError, StoreLockedError

    try:
        store = SolveStore(config.store_dir, faults=config.faults)
    except (StoreLockedError, StoreError, OSError) as exc:
        warnings.warn(
            f"solve store {config.store_dir!r} unavailable ({exc}); "
            "running with an in-memory cache instead",
            stacklevel=2,
        )
        return _run_compass_inner(task, config, initial_scheme,
                                  checkpoint_dir, resume)
    try:
        run_config = replace(
            config, solve_cache=store.cache(config.cache_max_entries))
        result = _run_compass_inner(task, run_config, initial_scheme,
                                    checkpoint_dir, resume)
    finally:
        store.close()
    # Snapshot after close so the flush/compaction counters are final.
    result.stats.store = replace(store.stats)
    return result


def _run_compass_inner(
    task: TaintVerificationTask,
    config: Optional[CegarConfig] = None,
    initial_scheme: Optional[TaintScheme] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> CegarResult:
    """The store-free CEGAR loop body (see :func:`run_compass`).

    Args:
        task: the verification task.
        config: budgets and knobs.
        initial_scheme: starting scheme (default: the task's blackbox
            scheme).
        checkpoint_dir: when given, journal the loop state after every
            completed iteration into this directory (atomic,
            checksummed entries — see :mod:`repro.cegar.checkpoint`)
            so a killed run can be resumed.
        resume: restore the newest intact checkpoint from
            ``checkpoint_dir`` and continue exactly where the
            interrupted run stopped — same scheme, same iteration
            counter, same RNG trajectory, with the journaled solve
            cache answering the already-decided questions.  An empty
            journal falls through to a fresh run.
    """
    from repro.cegar.checkpoint import (
        CegarCheckpoint,
        CheckpointError,
        CheckpointJournal,
        FORMAT_VERSION,
    )

    config = config or CegarConfig()
    if config.engine not in ("sequential", "portfolio", "static"):
        raise ValueError(
            f"unknown CEGAR engine {config.engine!r} "
            "(expected 'sequential', 'portfolio' or 'static')"
        )
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs a checkpoint_dir")
    digest = _config_digest(task, config)
    if config.seed is not None:
        rng = random.Random(config.seed)
    else:
        # seed=None must still be reproducible: a resumed run replays
        # the journaled rng state, and the config digest refuses a
        # resume under other knobs.  Derive the seed from that digest
        # instead of the old unseeded ``random.Random()`` fallback.
        rng = random.Random(int(digest[:16], 16))
    tracer = config.trace if config.trace is not None else NullTracer()
    # The statistics take this run's share of the tracer's books: what
    # it holds now belongs to earlier runs.
    base_counts = tracer.counter_totals()
    base_times = tracer.category_totals()

    journal: Optional[CheckpointJournal] = None
    restored: Optional[CegarCheckpoint] = None
    if checkpoint_dir is not None:
        journal = CheckpointJournal(checkpoint_dir, keep=config.checkpoint_keep,
                                    faults=config.faults)
        if resume:
            restored, skipped = journal.latest_with_diagnostics()
            for message in skipped:
                tracer.count("cegar.checkpoint_entries_rejected")
                warnings.warn(f"checkpoint fallback: skipped {message}",
                              stacklevel=2)
            if restored is not None and restored.config_digest != digest:
                raise CheckpointError(
                    "checkpoint was written under a different configuration; "
                    "refusing to resume (delete the journal or rerun with "
                    "the original knobs)"
                )

    stats = RefinementStats()
    restored_counters: Dict[str, float] = {}
    solve_cache: Optional[SolveCache] = None
    if (config.engine == "portfolio" or journal is not None
            or config.solve_cache is not None):
        # Checkpointed runs always keep a solve cache — journaled with
        # every entry, it is what makes a resume skip the already-
        # decided solves even under the sequential engine.  An injected
        # cache (store-backed or cross-run) is honored on every engine.
        # NOT `config.solve_cache or ...`: SolveCache has __len__, so an
        # injected-but-still-empty cache is falsy and would silently be
        # replaced by a fresh one (dropping store write-through).
        solve_cache = (config.solve_cache if config.solve_cache is not None
                       else SolveCache(config.cache_max_entries))
        # Shared live counters: with an injected cache these accumulate
        # across runs, which is what cross-run observability wants.
        stats.cache = solve_cache.stats
    scheme = (initial_scheme or task.initial_scheme()).copy(name=f"{task.name}-compass")
    start_iteration = 0
    last_bound = -1
    pruned_candidates: Set[str] = set()
    if restored is not None:
        scheme = restored.scheme
        stats = restored.stats
        restored_counters = dict(stats.counters)
        stats.resumed_from = restored.iteration
        start_iteration = restored.iteration
        last_bound = restored.last_bound
        pruned_candidates = set(restored.pruned_candidates)
        if restored.rng_state is not None:
            rng.setstate(restored.rng_state)
        if solve_cache is not None:
            # Validating merge: entries corrupted on disk are counted
            # in stats.rejected and dropped, never replayed.
            solve_cache.merge_entries(restored.cache_entries)
            stats.cache = solve_cache.stats
        tracer.count("cegar.resumes")
    started = time.monotonic()

    def book() -> None:
        """Set ``stats.counters``: restored counters + this run's."""
        counters = dict(restored_counters)
        for totals, base, prefix in (
                (tracer.counter_totals(), base_counts, ""),
                (tracer.category_totals(), base_times, TIME_PREFIX)):
            for name, value in totals.items():
                delta = value - base.get(name, 0)
                if delta:
                    key = prefix + name
                    counters[key] = counters.get(key, 0) + delta
        stats.counters = counters

    def finish(status: CegarStatus, **outcome) -> CegarResult:
        book()
        return CegarResult(status, task, scheme, design, prop, stats,
                           **outcome)

    def write_checkpoint(next_iteration: int) -> None:
        if journal is None:
            return
        book()
        # append() encodes on the spot, so live objects need no copies;
        # stats.cache is the solve cache's own live counters.
        journal.append(CegarCheckpoint(
            version=FORMAT_VERSION,
            task_name=task.name,
            config_digest=digest,
            iteration=next_iteration,
            scheme=scheme,
            stats=stats,
            last_bound=last_bound,
            rng_state=rng.getstate(),
            cache_entries=(solve_cache.snapshot_entries()
                           if solve_cache is not None else {}),
            pruned_candidates=pruned_candidates,
        ))
        tracer.count("cegar.checkpoints")

    def out_of_time() -> bool:
        return (
            config.total_time_limit is not None
            and time.monotonic() - started > config.total_time_limit
        )

    def mc_limit() -> Optional[float]:
        """``mc_time_limit`` clamped to the remaining overall budget.

        A candidate's verify must never outlive the loop's own
        deadline.
        """
        limit = config.mc_time_limit
        if config.total_time_limit is not None:
            remaining = max(
                0.0, config.total_time_limit - (time.monotonic() - started))
            limit = remaining if limit is None else min(limit, remaining)
        return limit

    if config.lint_on_entry:
        from repro.lint import LintConfig, LintError, lint

        report = lint(
            task.circuit, scheme,
            config=LintConfig(semantic=False),
            categories=["structural", "scheme"],
        )
        if not report.ok:
            raise LintError(report)

    from repro.cegar.speculate import verify_candidate

    with tracer.span("cegar.instrument", cat="gen"):
        design, prop = instrument_task(task, scheme)

    validator: Optional[ExactValidator] = None
    if config.exact_validation:
        with tracer.span("cegar.validator-init", cat="mc"):
            validator = ExactValidator(
                task.circuit, task.secret_registers(), task.sinks,
                init_assumption_outputs=task.init_assumption_outputs,
            )

    if journal is not None and restored is None:
        # Entry 0: even a run killed inside its first iteration can be
        # resumed (from the initial scheme, with an empty cache).
        write_checkpoint(start_iteration)

    for iteration in range(start_iteration, config.max_counterexamples + 1):
        # ---- Step 2: model checking -------------------------------
        cex: Optional[Counterexample] = None
        if config.sim_prefilter:
            with tracer.span("cegar.sim-prefilter", cat="simu",
                             iteration=iteration) as sp:
                cex = simulate_for_counterexample(
                    task, design, prop, config.sim_trials,
                    config.sim_depth, rng,
                )
                sp.set(hit=cex is not None)
        static_suspects: Tuple[str, ...] = ()
        verdict = None
        with tracer.span("cegar.model-check", cat="mc",
                         iteration=iteration,
                         engine=config.engine) as mc_span:
            if cex is None:
                verdict = verify_candidate(
                    task, scheme, config, cache=solve_cache,
                    tracer=tracer, design=design, prop=prop,
                    time_limit=mc_limit(), iteration=iteration,
                )
                if verdict.engine_status:
                    mc_span.set(status=verdict.engine_status)
                    if config.engine == "portfolio":
                        mc_span.set(winner=verdict.winner)
        verify_time = mc_span.elapsed
        if verdict is not None:
            static_suspects = verdict.suspects
            last_bound = max(last_bound, verdict.static_bound)
            if verdict.status == "proved":
                # Terminal checkpoint: a resume re-runs this iteration
                # and the restored cache answers the proof instantly.
                write_checkpoint(iteration)
                return finish(CegarStatus.PROVED, bound=-1,
                              verify_time=verify_time)
            last_bound = max(last_bound, verdict.bound)
            if verdict.status == "counterexample":
                cex = verdict.counterexample

        if cex is None:
            write_checkpoint(iteration)
            return finish(CegarStatus.BOUND_REACHED, bound=last_bound,
                          verify_time=verify_time)

        # ---- Counterexample validation ----------------------------
        with tracer.span("cegar.replay", cat="simu", iteration=iteration):
            taint_wf = cex.replay(design.circuit)
        final_cycle = taint_wf.length - 1
        sink = _tainted_sink(design, taint_wf, task.sinks, final_cycle)
        if sink is None:
            raise RuntimeError(
                "model checker produced a trace with no tainted sink")

        oracle = None
        if config.exact_validation:
            with tracer.span("cegar.validate", cat="mc",
                             iteration=iteration, sink=sink) as sp:
                spurious = validator.is_falsely_tainted(
                    cex, sink, time_limit=mc_limit(),
                )
                sp.set(spurious=spurious)
        else:
            with tracer.span("cegar.validate-fast", cat="simu",
                             iteration=iteration, sink=sink) as sp:
                oracle = FastFalseTaintOracle(
                    task.circuit, cex, SecretSpec.from_sources(task.sources)
                )
                spurious = oracle.is_falsely_tainted(sink, final_cycle)
                sp.set(spurious=spurious)
        if not spurious:
            write_checkpoint(iteration)
            return finish(CegarStatus.REAL_LEAK, bound=last_bound, leak=cex,
                          verify_time=verify_time)

        # ---- Step 3: iterative refinement (Figure 3) ---------------
        # The fast validation already replayed this counterexample.
        with tracer.span("cegar.oracle-build", cat="simu",
                         iteration=iteration):
            if oracle is None:
                oracle = FastFalseTaintOracle(
                    task.circuit, cex, SecretSpec.from_sources(task.sources)
                )
        failed_locations: set = set()
        while sink is not None:
            if (len(stats.refinement_log) >= config.max_refinements
                    or out_of_time()):
                return finish(CegarStatus.BUDGET_EXHAUSTED, bound=last_bound)
            outcome = None
            alert = None
            for _attempt in range(config.max_location_retries):
                with tracer.span("cegar.backtrace", cat="bt",
                                 iteration=iteration, sink=sink) as sp:
                    location = find_refinement_location(
                        design, taint_wf, oracle, sink, cycle=final_cycle,
                        rng=rng, excluded=failed_locations,
                        hints=static_suspects,
                    )
                    sp.set(location=location.name)
                try:
                    outcome = apply_refinement(
                        task.circuit, task.sources, scheme, design,
                        location, cex, tracer=tracer,
                    )
                    break
                except CorrelationImprecisionAlert as caught:
                    # The ladder is exhausted here; the fast test may
                    # have misjudged an upstream signal, so retry the
                    # trace with this location excluded before giving up.
                    alert = caught
                    failed_locations.add(location.name)
            if outcome is None:
                return finish(CegarStatus.CORRELATION_ALERT, bound=last_bound,
                              alert=alert)
            tracer.count("cegar.refinements")
            stats.refinement_log.append(f"{location}: {outcome.description}")
            # Keep the design and waveform the flip test already built:
            # attaching the monitors leaves both as a fresh
            # ``instrument_task`` + replay would make them.
            scheme = outcome.scheme
            design = outcome.design
            prop = attach_property(task, design)
            taint_wf = outcome.waveform
            sink = _tainted_sink(design, taint_wf, task.sinks, final_cycle)
        stats.eliminated.append(cex)
        tracer.count("cegar.counterexamples_eliminated")
        pruned_candidates |= failed_locations
        # Iteration complete (counterexample eliminated, scheme
        # stable): journal the state so a crash from here on resumes
        # at k + 1.
        write_checkpoint(iteration + 1)
        if out_of_time():
            return finish(CegarStatus.BUDGET_EXHAUSTED, bound=last_bound)
    return finish(CegarStatus.BUDGET_EXHAUSTED, bound=last_bound)
