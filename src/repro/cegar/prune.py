"""Pruning unnecessary refinements (the paper's Section 6.5 future work).

The CEGAR loop's early refinements cut counterexamples close to the
sink; once later refinements cut the same flows closer to the source,
the early cuts can become redundant (the paper's CSR / MulDiv
examples).  This pass tries to *undo* refinements one at a time, in
reverse application order, keeping an undo whenever every eliminated
counterexample remains blocked (its sinks stay untainted on replay).

The pruned scheme is guaranteed to block the recorded counterexamples
but — like any scheme — may admit new spurious ones, so callers should
re-verify afterwards (``run_compass(..., initial_scheme=pruned)`` picks
up where pruning left off and will re-refine if needed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.formal.counterexample import Counterexample
from repro.sim.simulator import Simulator
from repro.taint.instrument import InstrumentedDesign, TaintSources, instrument
from repro.taint.space import TaintScheme
from repro.cegar.loop import TaintVerificationTask, _tainted_sink


@dataclass
class PruneReport:
    """Outcome of a pruning pass."""

    attempted: int = 0
    removed: int = 0
    kept: int = 0
    #: Undo trials accepted by static taint reachability alone (no replay).
    static_accepted: int = 0
    elapsed: float = 0.0
    removed_log: List[str] = field(default_factory=list)

    def row(self) -> str:
        row = (
            f"pruning: removed {self.removed}/{self.attempted} refinements "
            f"in {self.elapsed:.2f}s"
        )
        if self.static_accepted:
            row += f" ({self.static_accepted} accepted without replay)"
        return row


def _blocks_all(
    task: TaintVerificationTask,
    scheme: TaintScheme,
    counterexamples: Sequence[Counterexample],
) -> bool:
    """Does ``scheme`` keep every counterexample's sink untainted?

    The counterexamples replay one after another on one simulator of
    the instrumented design, recording only the sink taint signals the
    check reads; the first one whose sink is still tainted decides.
    """
    design = instrument(task.circuit, scheme, task.sources)
    record = sorted({design.taint_name[sink] for sink in task.sinks
                     if design.taint_name.get(sink) in design.circuit.signals})
    sim = Simulator(design.circuit)
    for cex in counterexamples:
        waveform = cex.replay_on(sim, record=record)
        if _tainted_sink(design, waveform, task.sinks, waveform.length - 1):
            return False
    return True


_RegionKey = Tuple[FrozenSet[str], FrozenSet[str]]


def _statically_clean(
    task: TaintVerificationTask,
    scheme: TaintScheme,
    cache: Dict[_RegionKey, object],
) -> bool:
    """All sinks unreachable in the ever-tainted structural closure?

    The closure over-approximates every instrumented replay (taint is
    never generated outside the source set), so a clean answer accepts
    the undo trial without simulating a single counterexample.  It
    depends only on the scheme's region structure — cell options and
    register granularities change *precision*, not the propagation
    edges — so one closure is shared by every trial with the same
    blackbox/custom-module sets.
    """
    from repro.analyze.ift import taint_reachability

    key: _RegionKey = (
        frozenset(scheme.blackboxes),
        frozenset(scheme.custom_modules),
    )
    reach = cache.get(key)
    if reach is None:
        reach = taint_reachability(task.circuit, scheme, task.sources)
        cache[key] = reach
    return not reach.reachable(task.sinks)


def prune_refinements(
    task: TaintVerificationTask,
    scheme: TaintScheme,
    counterexamples: Sequence[Counterexample],
    time_limit: Optional[float] = None,
    use_static: bool = True,
) -> Tuple[TaintScheme, PruneReport]:
    """Remove refinements that are no longer needed.

    Args:
        task: the verification task the scheme was refined for.
        scheme: the refined scheme (not mutated).
        counterexamples: the spurious counterexamples the CEGAR loop
            eliminated (``result.stats.eliminated``).
        use_static: accept undo trials whose sinks are provably
            unreachable in the structural taint closure without
            replaying any counterexample.

    Returns the pruned scheme and a report.  With no counterexamples to
    re-check the scheme is returned unchanged (nothing can be validated).
    """
    started = time.monotonic()
    report = PruneReport()
    current = scheme.copy(name=f"{scheme.name}-pruned")
    if not counterexamples:
        report.elapsed = time.monotonic() - started
        return current, report

    initial_blackboxes = set(task.initial_scheme().blackboxes)
    reach_cache: Dict[_RegionKey, object] = {}

    def trial_blocks(trial: TaintScheme) -> bool:
        if use_static and _statically_clean(task, trial, reach_cache):
            report.static_accepted += 1
            return True
        return _blocks_all(task, trial, counterexamples)

    def out_of_time() -> bool:
        return time_limit is not None and time.monotonic() - started > time_limit

    # Undo candidates, most recent first (later refinements tend to be
    # closer to the source and to subsume earlier ones).
    cell_names = list(current.cell_options)
    for cell_name in reversed(cell_names):
        if out_of_time():
            break
        report.attempted += 1
        trial = current.copy()
        removed_option = trial.cell_options.pop(cell_name)
        if trial_blocks(trial):
            current = trial
            report.removed += 1
            report.removed_log.append(f"cell {cell_name} ({removed_option})")
        else:
            report.kept += 1

    for reg_name in list(current.register_granularity):
        if out_of_time():
            break
        report.attempted += 1
        trial = current.copy()
        del trial.register_granularity[reg_name]
        if trial_blocks(trial):
            current = trial
            report.removed += 1
            report.removed_log.append(f"register {reg_name}")
        else:
            report.kept += 1

    # Re-close opened blackboxes whose interior refinements all vanished.
    for module in sorted(initial_blackboxes - current.blackboxes):
        if out_of_time():
            break
        report.attempted += 1
        trial = current.copy()
        trial.blackboxes.add(module)
        if trial_blocks(trial):
            current = trial
            report.removed += 1
            report.removed_log.append(f"re-blackbox {module}")
        else:
            report.kept += 1

    report.elapsed = time.monotonic() - started
    return current, report
