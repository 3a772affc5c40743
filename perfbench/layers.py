"""Per-layer attribution by wrapping the layers' entry points from outside.

Nothing under ``src/`` is instrumented for this: :class:`LayerTrace`
replaces each entry point below with a timing wrapper at the binding
its caller actually looks up (a class attribute for methods, the
calling module's global for functions imported by name), and puts the
original back afterwards.

A wrapper records a span.  A layer's *self* time is its spans' wall
time minus the time spent in nested wrapped spans, so the self times
of all layers add up to the part of the run the wrappers cover, and
``trace.unattributed_share`` is the rest.  Counts are read from the
wrapped calls' arguments and return values.

Portfolio engine workers run in child processes; whatever they do is
seen only as the parent's ``formal.portfolio`` span.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class _Counts:
    """Per-layer counters the wrappers' hooks update."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = defaultdict(float)
        # Size of the netlist the current optimization chain hands on;
        # committed to ``hdl.cells_out`` when the next chain starts.
        self._chain_out: Optional[int] = None

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] += amount

    def chain_start(self, cells_in: int) -> None:
        self.chain_end()
        self.add("hdl.cells_in", cells_in)

    def chain_out(self, cells: int) -> None:
        self._chain_out = cells

    def chain_end(self) -> None:
        if self._chain_out is not None:
            self.add("hdl.cells_out", self._chain_out)
            self._chain_out = None


# Hooks: fn(counts, args, kwargs, result) called after a wrapped call
# returns normally.  ``args[0]`` is ``self`` for methods.

def _count(name: str) -> Callable:
    def hook(counts, _args, _kwargs, _result):
        counts.add(name)
    return hook


def _prefilter(counts, _args, _kwargs, result):
    counts.add("cegar.sim_prefilter_calls")
    if result is not None:
        counts.add("cegar.sim_prefilter_hits")


def _checkpoint(counts, _args, _kwargs, path):
    counts.add("cegar.checkpoints")
    counts.add("cegar.checkpoint_bytes", os.path.getsize(path))


def _sim_run(counts, args, kwargs, _result):
    stimulus = args[1] if len(args) > 1 else kwargs["stimulus"]
    counts.add("sim.cycles", len(stimulus))


def _sat(counts, _args, _kwargs, result):
    counts.add("formal.sat_calls")
    counts.add("formal.sat_conflicts", result.conflicts)
    counts.add("formal.sat_propagations", result.propagations)


def _simplify(counts, args, _kwargs, result):
    counts.chain_start(len(args[0].cells))
    counts.chain_out(len(result.cells))


def _strash(counts, _args, _kwargs, result):
    counts.chain_out(len(result.cells))


def _cache_get(counts, _args, _kwargs, result):
    counts.add("formal.cache_lookups")
    if result is not None:
        counts.add("formal.cache_hits")


def _store_close(counts, args, _kwargs, _result):
    stats = args[0].stats
    counts.add("store.appended", stats.appended)
    counts.add("store.hits", stats.hits)


#: (module, attribute path, layer, hook).  The layer is the span name
#: whose self time lands in ``<layer>_s``; None records counts only.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.cegar.loop", "simulate_for_counterexample", "cegar.sim_prefilter", _prefilter),
    ("repro.cegar.loop", "find_refinement_location", "cegar.backtrace", None),
    ("repro.cegar.loop", "apply_refinement", "cegar.refine", _count("cegar.refinements")),
    ("repro.cegar.loop", "instrument", "taint.instrument", _count("taint.instruments")),
    ("repro.cegar.refine", "instrument", "taint.instrument", _count("taint.instruments")),
    ("repro.cegar.falsetaint", "ExactValidator.__init__", "cegar.validate", None),
    ("repro.cegar.falsetaint", "ExactValidator.is_falsely_tainted", "cegar.validate",
     _count("cegar.validations")),
    ("repro.cegar.falsetaint", "exact_false_taint_check", "cegar.validate",
     _count("cegar.validations")),
    ("repro.lint", "lint", "cegar.lint", None),
    ("repro.cegar.checkpoint", "CheckpointJournal.append", "cegar.checkpoint", _checkpoint),
    ("repro.sim.simulator", "Simulator.__init__", "sim.build", _count("sim.builds")),
    ("repro.sim.simulator", "Simulator.step", "sim.step", _count("sim.cycles")),
    ("repro.sim.simulator", "Simulator.run", "sim.step", _sim_run),
    ("repro.formal.counterexample", "Counterexample.replay", "formal.replay",
     _count("formal.replays")),
    ("repro.formal.unroll", "Unroller.__init__", "formal.encode", None),
    ("repro.formal.unroll", "Unroller.add_frame", "formal.encode", _count("formal.frames")),
    ("repro.formal.sat.solver", "Solver.solve", "formal.sat", _sat),
    ("repro.formal.cache", "SolveCache.get", None, _cache_get),
    ("repro.formal.bmc", "lower_to_gates", "hdl.lower", _count("hdl.lowerings")),
    ("repro.formal.induction", "lower_to_gates", "hdl.lower", _count("hdl.lowerings")),
    ("repro.hdl.lowering", "lower_to_gates", "hdl.lower", _count("hdl.lowerings")),
    ("repro.hdl.optimize", "simplify", "hdl.optimize", _simplify),
    ("repro.hdl.optimize", "cone_of_influence", "hdl.optimize", None),
    ("repro.hdl.optimize", "strash", "hdl.optimize", _strash),
    ("repro.formal.portfolio", "check_certificate", "formal.certificate",
     _count("formal.certificates")),
    ("repro.cegar.speculate", "verify_portfolio", "formal.portfolio",
     _count("formal.portfolio_calls")),
    ("repro.store.store", "SolveStore.__init__", "store.open", None),
    ("repro.store.store", "SolveStore.flush", "store.flush", None),
    ("repro.store.store", "SolveStore.close", "store.close", _store_close),
)


class LayerTrace:
    """Install timing wrappers on :data:`ENTRY_POINTS`, then report.

    Usage::

        trace = LayerTrace()
        trace.install()
        try:
            run_the_workload()
        finally:
            trace.uninstall()
        assert not trace.not_restored()
        report = trace.report(wall_s)
    """

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts = _Counts()
        self._stacks = threading.local()
        self._originals: List[Tuple[object, str, Callable]] = []
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._stacks, "frames", None)
        if stack is None:
            stack = self._stacks.frames = []
        return stack

    def _wrap(self, original: Callable, layer: Optional[str],
              hook: Optional[Callable]) -> Callable:
        trace = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if os.getpid() != trace._pid:
                # A forked portfolio worker inherits the wrappers; its
                # spans would never reach this process.
                return original(*args, **kwargs)
            if layer is None:
                result = original(*args, **kwargs)
                hook(counts, args, kwargs, result)
                return result
            stack = trace._stack()
            frame = [0.0]  # wall time of nested wrapped spans
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                trace.self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, layer, hook in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self.counts.chain_end()

    def not_restored(self) -> List[str]:
        """Entry points still bound to something other than the original."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._originals
                if owner.__dict__[attr] is not original]

    def report(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer (``<layer>_s``), the counters, and ratios.

        Layers that never ran are absent; callers read them as 0.
        """
        out = {f"{layer}_s": t for layer, t in self.self_time.items()}
        out.update(self.counts.values)
        get = out.get
        out["sim.cycles_per_s"] = _ratio(get("sim.cycles", 0), get("sim.step_s", 0))
        out["formal.sat_props_per_s"] = _ratio(get("formal.sat_propagations", 0),
                                               get("formal.sat_s", 0))
        out["formal.cache_hit_ratio"] = _ratio(get("formal.cache_hits", 0),
                                               get("formal.cache_lookups", 0))
        attributed = sum(self.self_time.values())
        out["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(attributed, wall_s))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
