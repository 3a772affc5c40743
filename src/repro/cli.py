"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``verify``     — run the Compass CEGAR loop on a core's contract.
- ``analyze``    — SAT-free dataflow summary of a core's contract.
- ``lint``       — static analysis over a core or netlist file.
- ``leak-check`` — directed formal leak check with a gadget program.
- ``overhead``   — Figure-5-style instrumentation overhead comparison.
- ``simulate``   — run a benchmark kernel on a core (optionally tainted).
- ``export``     — emit a core's circuit as Verilog or JSON netlist.
- ``trace``      — summarize a performance trace from ``verify --trace``.
- ``tables``     — print the static tables (Table 1 and Table 5).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.cores import CoreConfig, core_registry


def _core_names() -> List[str]:
    return list(core_registry())


def _lane_count(text: str) -> int:
    lanes = int(text)
    if lanes < 1:
        raise argparse.ArgumentTypeError(f"lane count must be >= 1, got {lanes}")
    return lanes


def _build_core(args, with_shadow: bool = True):
    cfg = CoreConfig(
        xlen=args.xlen, imem_depth=args.imem, dmem_depth=args.dmem,
        secret_words=args.secret_words,
    )
    return core_registry()[args.core](cfg, with_shadow)


def _add_core_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--core", choices=_core_names(), default="Sodor")
    parser.add_argument("--xlen", type=int, default=8)
    parser.add_argument("--imem", type=int, default=8)
    parser.add_argument("--dmem", type=int, default=8)
    parser.add_argument("--secret-words", type=int, default=2)


def cmd_verify(args) -> int:
    from repro.contracts import make_contract_task
    from repro.cegar import (
        CegarConfig,
        CegarStatus,
        CheckpointError,
        prune_refinements,
        run_compass,
    )

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    core = _build_core(args)
    task = make_contract_task(core)
    print(f"verifying {core.name}: {core.circuit!r}")
    config = CegarConfig(
        max_bound=args.max_bound,
        use_induction=False,
        mc_enabled=not args.testing_only,
        mc_time_limit=args.budget / 3 if args.budget else None,
        total_time_limit=args.budget,
        max_refinements=args.max_refinements,
        seed=args.seed,
        engine=args.engine,
        static_prescreen=args.static_prescreen,
        certify=args.certify,
        store_dir=args.store,
        trace=tracer,
    )
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    try:
        result = run_compass(task, config, checkpoint_dir=args.checkpoint,
                             resume=args.resume)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"status: {result.status.value} (bound {result.bound})")
    print(result.stats.row(core.name))
    if args.engine == "portfolio":
        for line in result.stats.portfolio_rows():
            print(line)
    elif args.cache_stats and result.stats.cache is not None:
        # Sequential engines share the cache too once checkpointing (or
        # resume) brings one into the run.
        print(result.stats.cache.row())
    for line in result.stats.analyze_rows():
        print(line)
    for line in result.stats.robustness_rows():
        print(line)
    for line in result.stats.refinement_log:
        print(f"  {line}")
    scheme = result.scheme
    if args.prune and result.secure:
        scheme, report = prune_refinements(task, result.scheme,
                                           result.stats.eliminated)
        print(report.row())
        for line in report.removed_log:
            print(f"  pruned: {line}")
    if args.save_scheme:
        from repro.ioutil import atomic_write
        from repro.taint.scheme_io import save_scheme

        with atomic_write(args.save_scheme) as handle:
            save_scheme(scheme, handle)
        print(f"saved refined scheme to {args.save_scheme}")
    if tracer is not None:
        from repro.obs import write_trace_file

        write_trace_file(tracer, args.trace, args.trace_format)
        print(f"wrote {args.trace_format} trace ({len(tracer)} events) "
              f"to {args.trace}")
    if args.report:
        from repro.cegar.report import render_report
        from repro.ioutil import atomic_write

        with atomic_write(args.report) as handle:
            handle.write(render_report(result, task, tracer=tracer))
        print(f"wrote verification report to {args.report}")
    return 0 if result.secure else 1


def analyze_document(core, max_frames: int = 64) -> dict:
    """The ``repro-analyze/v1`` summary document for one core."""
    from repro.analyze import (
        constant_fixpoint,
        static_verify,
        taint_reachability,
        x_reachability,
        x_sources,
    )
    from repro.cegar.loop import instrument_task
    from repro.contracts import make_contract_task
    from repro.hdl.lowering import lower_to_gates
    from repro.taint import cellift_scheme

    task = make_contract_task(core)
    circuit = task.circuit
    started = time.monotonic()

    # Structural taint reachability under the CellIFT (fully precise)
    # region structure: which contract sinks can taint reach at all?
    reach = taint_reachability(circuit, cellift_scheme(), task.sources)
    hot_sinks = reach.reachable(task.sinks)

    # Ternary constant facts, with the universally quantified and
    # never-initialized state left unpinned.
    symbolic = frozenset(task.symbolic_registers)
    lowered = lower_to_gates(circuit)
    facts = constant_fixpoint(
        lowered, symbolic | frozenset(x_sources(circuit))
    )
    constants = facts.constant_names()

    # X reachability: which outputs can observe uninitialized state?
    xreach = x_reachability(
        circuit,
        x_sources(circuit, symbolic),
        constant_signals=[
            name for name in circuit.signals
            if facts.word_value(lowered, name) is not None
        ],
    )
    x_outputs = xreach.observable(sig.name for sig in circuit.outputs)

    # The static engine's verdict on the instrumented contract property.
    design, prop = instrument_task(task, task.initial_scheme())
    verdict = static_verify(design.circuit, prop, max_frames=max_frames)
    elapsed = time.monotonic() - started

    return {
        "schema": "repro-analyze/v1",
        "task": task.name,
        "cells": len(circuit.cells),
        "state_bits": circuit.state_bits(),
        "outputs": len(circuit.outputs),
        "taint": {
            "sources": len(reach.sources),
            "tainted_signals": len(reach.tainted),
            "sinks": list(task.sinks),
            "reachable_sinks": list(hot_sinks),
        },
        "constants": {
            "slots": len(facts.values),
            "pinned": len(constants),
            "worklist_pops": facts.pops,
        },
        "xprop": {
            "sources": list(xreach.sources),
            "observable_outputs": list(x_outputs),
        },
        "static": {
            "status": verdict.status,
            "bound": verdict.bound,
            "frames": verdict.frames,
            "reason": verdict.reason,
            "suspects": list(verdict.suspects),
            "elapsed": round(verdict.elapsed, 3),
        },
        "elapsed": round(elapsed, 3),
    }


def render_analyze_document(doc: dict) -> List[str]:
    """Human-readable lines for an ``analyze_document`` summary."""
    taint, const = doc["taint"], doc["constants"]
    xprop, static = doc["xprop"], doc["static"]
    lines = [
        f"analyze {doc['task']}: {doc['cells']} cells, "
        f"{doc['state_bits']} state bits",
        f"  taint : {len(taint['reachable_sinks'])}/{len(taint['sinks'])} "
        f"sinks reachable from {taint['sources']} sources "
        f"({taint['tainted_signals']} signals ever-tainted)",
        f"  const : {const['pinned']}/{const['slots']} gate-level "
        f"signals pinned at the ternary fixpoint",
        f"  xprop : {len(xprop['sources'])} uninitialized sources; "
        f"observable at {len(xprop['observable_outputs'])}/{doc['outputs']} "
        f"outputs",
        f"  static: {static['status']} (bound {static['bound']}, "
        f"{static['frames']} frames) in {static['elapsed']:.2f}s",
    ]
    if static["reason"]:
        lines.append(f"          {static['reason']}")
    if static["suspects"]:
        shown = ", ".join(static["suspects"][:8])
        suffix = ", ..." if len(static["suspects"]) > 8 else ""
        lines.append(f"          suspects: {shown}{suffix}")
    lines.append(f"  ({doc['elapsed']:.2f}s total)")
    return lines


def cmd_analyze(args) -> int:
    """SAT-free dataflow summary of a core's contract task."""
    import json as _json

    doc = analyze_document(_build_core(args), max_frames=args.max_frames)
    if args.json:
        print(_json.dumps(doc, indent=1))
        return 0
    for line in render_analyze_document(doc):
        print(line)
    return 0


def cmd_leak_check(args) -> int:
    from repro.bench import gadgets

    gadget = {
        "spectre": gadgets.SPECTRE_GADGET,
        "nested": gadgets.NESTED_BRANCH_GADGET,
        "mul": gadgets.MUL_TIMING_GADGET,
    }[args.gadget]
    core = _build_core(args)
    check = gadgets.check_gadget(core, gadget, args.max_bound,
                                 time_limit=args.budget)
    cex = check.counterexample
    if cex is None:
        print(f"{core.name}: no taint violation up to cycle {check.bound} "
              f"({check.elapsed:.1f}s) — secure on this gadget")
        return 0
    verdict = "REAL LEAK" if check.real else "spurious taint (refine the scheme)"
    print(f"{core.name}: taint on {check.sink} at cycle {check.bound} "
          f"({check.elapsed:.1f}s) — {verdict}")
    if args.trace:
        from repro.sim.trace_view import format_counterexample

        print()
        print(format_counterexample(cex, core.circuit, signals=list(core.sinks)))
    return 2 if check.real else 0


def cmd_overhead(args) -> int:
    from repro.contracts import make_contract_task
    from repro.cegar import CegarConfig, run_compass
    from repro.cegar.loop import instrument_task
    from repro.taint import cellift_scheme, instrumentation_overhead, scheme_summary

    core = _build_core(args)
    task = make_contract_task(core)
    refined = run_compass(task, CegarConfig(
        mc_enabled=False, sim_trials=96, sim_depth=16,
        exact_validation=False, max_refinements=400,
        max_counterexamples=200, seed=args.seed,
    )).scheme
    cellift = cellift_scheme()
    cellift.module_defaults = dict(refined.module_defaults)
    for label, scheme in (("CellIFT", cellift), ("Compass", refined)):
        design, _ = instrument_task(task, scheme.copy())
        print(instrumentation_overhead(design).row())
        if label == "Compass" and args.detail:
            for row in scheme_summary(design, depth=2):
                print("  " + row.format())
    return 0


def cmd_simulate(args) -> int:
    from repro.bench.workloads import WORKLOADS, run_workload
    from repro.sim import Simulator
    from repro.taint import TaintSources, cellift_scheme, instrument

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    cfg = CoreConfig.simulation()
    core = core_registry()[args.core](cfg, False)
    workload = WORKLOADS[args.workload]
    # One run per data seed, on one simulator reset per seed.
    seeds = list(range(args.seed, args.seed + args.lanes))
    started = time.monotonic()
    sim = Simulator(core.circuit)
    cycles = [run_workload(sim, core, workload, seed) for seed in seeds]
    elapsed = time.monotonic() - started
    steps = sum(cycles)
    if tracer is not None:
        tracer.gauge("sim.lanes", len(seeds))
        tracer.count("sim.steps", steps)
        if elapsed > 0:
            tracer.gauge("sim.steps_per_sec", steps / elapsed)
    tainted = []
    if args.taint:
        sources = TaintSources(registers={core.dmem_words[i]: -1 for i in range(4)})
        design = instrument(core.circuit, cellift_scheme(), sources)
        tsim = Simulator(design.circuit)
        for seed in seeds:
            run_workload(tsim, core, workload, seed)
            tainted.append([i for i in range(cfg.dmem_depth)
                            if tsim.peek(design.taint_name[core.dmem_words[i]]) != 0])
    if args.lanes > 1:
        print(f"{workload.name} on {core.name}: {args.lanes} seeds "
              f"({seeds[0]}..{seeds[-1]}), {elapsed:.3f}s, "
              f"{steps / elapsed if elapsed else 0:,.0f} cycles/s (every run "
              "self-checked against the ISA interpreter)")
        for k, seed in enumerate(seeds):
            line = f"  seed {seed}: {cycles[k]} cycles"
            if args.taint:
                line += f", tainted memory words (inputs 0-3 tainted): {tainted[k]}"
            print(line)
    else:
        print(f"{workload.name} on {core.name}: {cycles[0]} cycles, "
              f"{elapsed:.3f}s (self-checked against the ISA interpreter)")
        if args.taint:
            print("tainted memory words after run "
                  f"(inputs 0-3 tainted): {tainted[0]}")
    if tracer is not None:
        from repro.obs import write_trace_file

        write_trace_file(tracer, args.trace, "jsonl")
        print(f"wrote jsonl trace ({len(tracer)} events) to {args.trace}")
    return 0


def cmd_export(args) -> int:
    from repro.hdl.serialize import dump
    from repro.hdl.verilog import write_verilog

    core = _build_core(args, with_shadow=not args.no_shadow)

    def emit(out) -> None:
        if args.format == "verilog":
            write_verilog(core.circuit, out)
        else:
            dump(core.circuit, out)

    if args.output:
        from repro.ioutil import atomic_write

        with atomic_write(args.output) as out:
            emit(out)
        print(f"wrote {args.format} for {core.name} to {args.output}")
    else:
        emit(sys.stdout)
    return 0


def cmd_lint(args) -> int:
    """Lint a design: a core name or a JSON netlist file."""
    import json as _json
    import os

    from repro.lint import LintConfig, Severity, SourceMap, lint

    if args.selftest:
        return _lint_selftest()
    if args.design is None:
        print("error: a design (core name or netlist file) is required "
              "unless --selftest is given", file=sys.stderr)
        return 2
    scheme = None
    if args.scheme:
        from repro.taint.scheme_io import load_scheme

        with open(args.scheme) as handle:
            scheme = load_scheme(handle, allow_custom=True)

    source_map = None
    if args.design in core_registry():
        cfg = CoreConfig(xlen=args.xlen, imem_depth=args.imem,
                         dmem_depth=args.dmem, secret_words=args.secret_words)
        core = core_registry()[args.design](cfg, not args.no_shadow)
        circuit = core.circuit
    elif os.path.exists(args.design):
        # Load leniently: a netlist with invariant violations is exactly
        # what the linter is for.
        from repro.hdl.serialize import circuit_from_dict

        try:
            with open(args.design) as handle:
                doc = _json.load(handle)
            circuit = circuit_from_dict(doc, validate=False)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: {args.design} is not a readable netlist "
                  f"document: {exc}", file=sys.stderr)
            return 2
        if doc.get("provenance"):
            source_map = SourceMap.from_provenance(doc["provenance"])
    else:
        print(f"error: {args.design!r} is neither a known core "
              f"({', '.join(_core_names())}) nor a netlist file",
              file=sys.stderr)
        return 2

    waivers = []
    for entry in args.waive or ():
        rule_id, sep, pattern = entry.partition(":")
        if not sep or not rule_id or not pattern:
            print(f"error: --waive expects RULE:GLOB, got {entry!r}",
                  file=sys.stderr)
            return 2
        waivers.append((rule_id, pattern))
    waivers_file = args.waivers
    if waivers_file is None and not args.no_waivers:
        from repro.lint import find_waivers_file

        found = find_waivers_file()
        waivers_file = str(found) if found is not None else None
    if waivers_file:
        from repro.lint import WaiverError, load_waivers

        try:
            waivers.extend(load_waivers(waivers_file))
        except (OSError, WaiverError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    config = LintConfig(
        disabled=set(args.disable or ()),
        semantic=not args.no_semantic,
        waivers=tuple(waivers),
    )
    started = time.monotonic()
    report = lint(circuit, scheme, config=config, source_map=source_map)
    elapsed = time.monotonic() - started
    if args.format == "json":
        print(_json.dumps(report.to_stable_dict(), indent=1))
    elif args.json:
        print(report.to_json())
    else:
        min_severity = {"error": Severity.ERROR, "warning": Severity.WARNING,
                        "info": Severity.INFO}[args.min_severity]
        print(report.render_text(min_severity=min_severity))
        print(f"({len(circuit.cells)} cells linted in {elapsed:.2f}s)")
    return 0 if report.ok else 1


def _lint_selftest() -> int:
    """Verify the linter catches known-bad inputs (exit 0 iff it does)."""
    from repro.hdl import ModuleBuilder
    from repro.hdl.cells import Cell, CellOp
    from repro.hdl.circuit import Circuit
    from repro.hdl.signals import Signal, SignalKind
    from repro.lint import lint
    from repro.taint import TaintScheme
    from repro.taint.custom import ConstantCleanTaint

    failures = []

    # 1. A custom handler that drops taint on a pass-through.
    b = ModuleBuilder("selftest")
    sec = b.reg("secret", 1)
    sec.drive(sec)
    a = b.reg("a", 1)
    a.drive(a)
    with b.scope("masker"):
        out = b.named("out", sec & a)
    b.output("sink", out)
    circuit = b.build()
    scheme = TaintScheme("unsound")
    scheme.custom_modules["masker"] = ConstantCleanTaint()
    report = lint(circuit, scheme)
    if report.by_rule("unsound-handler"):
        print("PASS unsound custom handler flagged as error")
    else:
        failures.append("unsound-handler not reported")

    # 2. A hand-built combinational loop.
    loopy = Circuit("loopy")
    x = Signal("x", 1, SignalKind.WIRE)
    y = Signal("y", 1, SignalKind.WIRE)
    z = Signal("z", 1, SignalKind.OUTPUT)
    for sig in (x, y):
        loopy.signals[sig.name] = sig
    loopy.add_signal(z)
    loopy.cells.append(Cell(CellOp.BUF, x, (y,)))
    loopy.cells.append(Cell(CellOp.BUF, y, (x,)))
    loopy.cells.append(Cell(CellOp.BUF, z, (x,)))
    report = lint(loopy)
    if any(d.severity.value == "error" for d in report.by_rule("comb-loop")):
        print("PASS combinational loop flagged as error")
    else:
        failures.append("comb-loop not reported")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_trace(args) -> int:
    """Inspect a trace file written by ``verify --trace``."""
    from repro.obs import render_summary, load_trace

    if args.action == "summarize":
        try:
            summary = load_trace(args.file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load trace {args.file!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(render_summary(summary, top=args.top))
        return 0
    raise AssertionError(f"unhandled trace action {args.action!r}")


def cmd_tables(_args) -> int:
    from repro.cores.configs import format_table1
    from repro.taint import PRESETS

    print(format_table1())
    print("\nTable 5 rows (scheme -> dimensions):")
    for scheme, dims in PRESETS.items():
        print(f"  {scheme:<16} unit={','.join(dims['unit'])} "
              f"granularity={','.join(dims['granularity'])} "
              f"complexity={','.join(dims['complexity'])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the Compass CEGAR loop on a core")
    _add_core_options(p)
    p.add_argument("--budget", type=float, default=180.0)
    p.add_argument("--max-bound", type=int, default=10)
    p.add_argument("--max-refinements", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prune", action="store_true",
                   help="prune unnecessary refinements afterwards")
    p.add_argument("--testing-only", action="store_true",
                   help="refinement by simulation only (no model checker)")
    p.add_argument("--engine", choices=("sequential", "portfolio", "static"),
                   default="sequential",
                   help="model-checking engine: the classic k-induction/BMC "
                        "cascade, the BMC->PDR->k-induction portfolio "
                        "with a cross-iteration solve cache, or "
                        "the SAT-free ternary static engine")
    p.add_argument("--static-prescreen", action="store_true",
                   help="run the SAT-free ternary pre-screen before each "
                        "model-check call (implied by --engine static)")
    p.add_argument("--cache-stats", action="store_true",
                   help="portfolio: print solve-cache hit/miss/eviction "
                        "counters and per-engine timings after the run")
    p.add_argument("--certify", dest="certify", action="store_true",
                   default=True,
                   help="portfolio: validate every PDR proof's inductive-"
                        "invariant certificate with the independent checker "
                        "before accepting the verdict (the default)")
    p.add_argument("--no-certify", dest="certify", action="store_false",
                   help="portfolio: accept PDR proofs without re-checking "
                        "their certificates")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="journal CEGAR state to DIR after every iteration "
                        "(atomic, checksummed entries) so an interrupted "
                        "run can be resumed")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest intact checkpoint in the "
                        "--checkpoint directory instead of starting fresh")
    p.add_argument("--save-scheme", metavar="FILE", default=None,
                   help="save the refined taint scheme as JSON")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write a Markdown verification report")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="record a performance trace of the run (spans per "
                        "CEGAR phase and engine frame, SAT counters) and "
                        "write it to FILE")
    p.add_argument("--trace-format", choices=("jsonl", "chrome"),
                   default="chrome",
                   help="trace file format: chrome trace-event JSON "
                        "(load in Perfetto / about:tracing) or JSONL "
                        "(one event per line; repro trace summarize "
                        "reads both)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persistent solve store: seed the run's cache "
                        "from DIR and persist every new verdict there "
                        "(crash-safe; a locked or corrupt store degrades "
                        "to an in-memory cache with a warning)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze",
                       help="SAT-free dataflow analysis of a core's contract")
    _add_core_options(p)
    p.add_argument("--max-frames", type=int, default=64,
                   help="frame budget of the bounded ternary pass")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON (repro-analyze/v1)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("leak-check", help="directed formal leak check")
    _add_core_options(p)
    p.add_argument("--gadget", choices=("spectre", "nested", "mul"),
                   default="spectre")
    p.add_argument("--budget", type=float, default=240.0)
    p.add_argument("--max-bound", type=int, default=12)
    p.add_argument("--trace", action="store_true",
                   help="print the observation trace of the counterexample")
    p.set_defaults(func=cmd_leak_check)

    p = sub.add_parser("overhead", help="CellIFT vs Compass overhead")
    _add_core_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detail", action="store_true")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("simulate", help="run a workload on a core")
    p.add_argument("--core", choices=_core_names(), default="Rocket")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="median")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lanes", type=_lane_count, default=1, metavar="K",
                   help="run K data seeds, SEED..SEED+K-1, one after "
                        "another on one simulator")
    p.add_argument("--taint", action="store_true",
                   help="also run CellIFT-instrumented taint simulation")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="record a performance trace (sim.lanes / "
                        "sim.steps / sim.steps_per_sec; repro trace "
                        "summarize reads it)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="emit a core as Verilog or JSON")
    _add_core_options(p)
    p.add_argument("--format", choices=("verilog", "json"), default="verilog")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-shadow", action="store_true")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("lint", help="static analysis over a core or netlist")
    p.add_argument("design", nargs="?", default=None,
                   help="core name or JSON netlist file")
    p.add_argument("--xlen", type=int, default=8)
    p.add_argument("--imem", type=int, default=8)
    p.add_argument("--dmem", type=int, default=8)
    p.add_argument("--secret-words", type=int, default=2)
    p.add_argument("--no-shadow", action="store_true",
                   help="lint the core without its ISA shadow machine")
    p.add_argument("--scheme", metavar="FILE", default=None,
                   help="also check a saved taint scheme against the design")
    p.add_argument("--no-semantic", action="store_true",
                   help="skip SAT-backed semantic rules")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON (legacy compact form)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format; json is the stable machine "
                        "schema (repro-lint/v1)")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="disable a rule id (repeatable)")
    p.add_argument("--waive", action="append", metavar="RULE:GLOB",
                   help="waive findings of RULE on paths matching GLOB")
    p.add_argument("--waivers", metavar="FILE", default=None,
                   help="committed waivers file (default: nearest "
                        "lint-waivers.toml up from the working directory)")
    p.add_argument("--no-waivers", action="store_true",
                   help="ignore any committed lint-waivers.toml")
    p.add_argument("--min-severity", choices=("error", "warning", "info"),
                   default="info", help="lowest severity to print")
    p.add_argument("--selftest", action="store_true",
                   help="check the linter catches known-bad designs")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("trace", help="inspect performance traces")
    trace_sub = p.add_subparsers(dest="action", required=True)
    ps = trace_sub.add_parser("summarize",
                              help="top spans by self-time, counter totals")
    ps.add_argument("file", help="trace file (chrome or JSONL format)")
    ps.add_argument("--top", type=int, default=15,
                    help="number of span names to list")
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser("tables", help="print Table 1 and Table 5")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
