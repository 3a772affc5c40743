"""Verification report generation for CEGAR results.

Renders a :class:`~repro.cegar.loop.CegarResult` as a self-contained
Markdown document: outcome, Table-3-style statistics, the refinement
log, the final scheme summarized per module (Table-4 style), and the
overhead against CellIFT (Figure-5 style).  Used by ``python -m repro
verify --report``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.taint import cellift_scheme, instrumentation_overhead, scheme_summary

#: Span category -> Table-3 column, for the trace-derived breakdown.
_PHASE_LABELS = {
    "mc": "model checking (t_MC)",
    "simu": "simulation (t_Simu)",
    "bt": "backtracing (t_BT)",
    "gen": "generation (t_Gen)",
    "engine": "engine frames (inside t_MC)",
    "portfolio": "portfolio scheduling",
}


def _render_time_breakdown(tracer) -> List[str]:
    """The "where did the time go" section, from a run's live trace."""
    from repro.obs import summary_from_events

    summary = summary_from_events(tracer.snapshot_events())
    lines: List[str] = []
    lines.append("## Where did the time go")
    lines.append("")
    lines.append(f"{len(summary.spans)} spans on {len(summary.tracks)} "
                 f"track(s), wall {summary.wall:.2f}s.")
    lines.append("")
    cats = summary.category_totals()
    if cats:
        lines.append("| phase | total |")
        lines.append("|---|---|")
        for cat in sorted(cats, key=lambda c: -cats[c]):
            lines.append(f"| {_PHASE_LABELS.get(cat, cat)} | {cats[cat]:.3f}s |")
        lines.append("")
    rows = summary.by_name()
    if rows:
        lines.append("| span | count | total | self |")
        lines.append("|---|---|---|---|")
        for name, count, total, self_t in rows[:10]:
            lines.append(f"| `{name}` | {count} | {total:.3f}s | {self_t:.3f}s |")
        lines.append("")
    if summary.counters:
        lines.append("| counter | total |")
        lines.append("|---|---|")
        for name in sorted(summary.counters):
            value = summary.counters[name]
            shown = int(value) if value == int(value) else value
            lines.append(f"| `{name}` | {shown} |")
        lines.append("")
    return lines


def render_report(result, task=None, tracer=None) -> str:
    """Render a Markdown verification report for a CEGAR result.

    With ``tracer`` (the :class:`~repro.obs.Tracer` the run recorded
    into) the report gains a "where did the time go" section: phase
    totals from the trace, the hottest spans by self-time, and the SAT
    / solve-cache counter totals.
    """
    from repro.cegar.loop import instrument_task

    task = task or result.task
    lines: List[str] = []
    lines.append(f"# Compass verification report: {task.name}")
    lines.append("")
    lines.append(f"- design: `{task.circuit.name}` "
                 f"({len(task.circuit.cells)} cells, "
                 f"{task.circuit.state_bits()} state bits)")
    lines.append(f"- sinks: {', '.join(f'`{s}`' for s in task.sinks)}")
    lines.append(f"- taint sources: "
                 f"{len(task.sources.registers)} registers, "
                 f"{len(task.sources.inputs)} inputs")
    lines.append("")

    lines.append("## Outcome")
    lines.append("")
    status = result.status.value
    if result.secure:
        depth = "unbounded" if status == "proved" else f"up to cycle {result.bound}"
        lines.append(f"**{status.upper()}** — the property holds {depth}.")
    elif status == "real_leak":
        lines.append(f"**REAL LEAK** — witnessed in {result.leak.length} cycles.")
    else:
        lines.append(f"**{status.upper()}**")
    lines.append("")

    stats = result.stats
    lines.append("## Refinement statistics (Table 3 format)")
    lines.append("")
    lines.append("| counterexamples | refinements | t_MC | t_Simu | t_BT | t_Gen |")
    lines.append("|---|---|---|---|---|---|")
    lines.append(
        f"| {stats.counterexamples_eliminated} | {stats.refinements} "
        f"| {stats.t_mc:.2f}s | {stats.t_simu:.2f}s "
        f"| {stats.t_bt:.2f}s | {stats.t_gen:.2f}s |"
    )
    lines.append("")

    if stats.static_prescreens:
        lines.append("## Static pre-screen")
        lines.append("")
        for row in stats.analyze_rows():
            lines.append(f"- {row}")
        lines.append("")

    if stats.portfolio_calls:
        lines.append("## Verification portfolio")
        lines.append("")
        lines.append(f"{stats.portfolio_calls} model-checking call(s) dispatched "
                     "to the parallel engine portfolio.")
        lines.append("")
        lines.append("| engine | total time | winning verdicts |")
        lines.append("|---|---|---|")
        for engine in sorted(stats.engine_times):
            lines.append(
                f"| {engine} | {stats.engine_times[engine]:.2f}s "
                f"| {stats.engine_wins.get(engine, 0)} |"
            )
        lines.append("")
        if stats.certificates_checked:
            lines.append(
                f"Proof certificates: {stats.certificates_checked} "
                f"inductive-invariant certificate(s) validated by the "
                f"independent checker, {stats.certificates_failed} "
                f"rejected."
            )
            lines.append("")
        if stats.cache is not None:
            cache = stats.cache
            rejected = (f", {cache.rejected} rejected on merge"
                        if cache.rejected else "")
            lines.append(
                f"Solve cache: {cache.hits} hits / {cache.misses} misses "
                f"({cache.hit_rate * 100:.0f}% hit rate), "
                f"{cache.stores} stores, {cache.evictions} evictions"
                f"{rejected}."
            )
            lines.append("")

    if (stats.worker_crashes or stats.worker_retries
            or stats.checkpoints_written or stats.resumed_from is not None):
        lines.append("## Robustness")
        lines.append("")
        if stats.resumed_from is not None:
            lines.append(f"- resumed from a checkpoint at iteration "
                         f"{stats.resumed_from}")
        if stats.checkpoints_written:
            lines.append(f"- checkpoints written this run: "
                         f"{stats.checkpoints_written}")
        if stats.worker_retries:
            lines.append(f"- crashed engine workers relaunched: "
                         f"{stats.worker_retries}")
        if stats.worker_crashes:
            lines.append(f"- worker crashes left unrecovered: "
                         f"{stats.worker_crashes}")
        lines.append("")

    if tracer is not None and len(tracer):
        lines.extend(_render_time_breakdown(tracer))

    if stats.refinement_log:
        lines.append("## Refinements applied")
        lines.append("")
        for entry in stats.refinement_log:
            lines.append(f"1. {entry}")
        lines.append("")

    design, _prop = instrument_task(task, result.scheme)
    compass = instrumentation_overhead(design)
    cellift = cellift_scheme()
    cellift.module_defaults = dict(result.scheme.module_defaults)
    cellift_design, _ = instrument_task(task, cellift)
    full = instrumentation_overhead(cellift_design)
    lines.append("## Scheme overhead vs CellIFT (Figure 5 format)")
    lines.append("")
    lines.append("| scheme | gate overhead | register-bit overhead |")
    lines.append("|---|---|---|")
    lines.append(f"| CellIFT | {full.gate_overhead * 100:.1f}% "
                 f"| {full.reg_bit_overhead * 100:.1f}% |")
    lines.append(f"| Compass | {compass.gate_overhead * 100:.1f}% "
                 f"| {compass.reg_bit_overhead * 100:.1f}% |")
    lines.append("")

    lines.append("## Final taint scheme per module (Table 4 format)")
    lines.append("")
    lines.append("| module | granularity | taint bits / orig bits | refined / cells |")
    lines.append("|---|---|---|---|")
    for row in scheme_summary(design, depth=2):
        if row.module.startswith("isa") or row.module.startswith("_"):
            continue
        lines.append(
            f"| `{row.module}` | {row.granularity} "
            f"| {row.taint_bits}/{row.orig_bits} "
            f"| {row.refined_cells}/{row.orig_cells} |"
        )
    lines.append("")
    return "\n".join(lines)
