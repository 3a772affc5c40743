"""Taint instrumentation pass (the paper's FIRRTL compiler pass).

Given a design and a :class:`~repro.taint.space.TaintScheme`, this pass
produces a new circuit containing the original logic *plus* taint logic:

- every non-blackboxed signal gets a taint signal (``<name>__t``) of
  width 1 (WORD granularity) or of the signal's width (BIT);
- every non-blackboxed register gets a taint register;
- every blackboxed module is tracked by a single *sticky* taint
  register bit (the paper's Step-1 "blackboxing" scheme): the bit sets
  as soon as tainted data enters the module and never clears, and the
  module's outputs are tainted whenever the bit is set or tainted data
  can combinationally reach them (per-output input-cone analysis keeps
  the taint network loop-free, which is why the paper only groups
  registers, never wires).

Taint *sources* (which registers/inputs start tainted) are a property
of the verification task, not of the scheme, and are supplied
separately via :class:`TaintSources`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, Register
from repro.hdl.lowering import lower_to_gates
from repro.hdl.signals import Signal, SignalKind
from repro.taint.emitter import Emitter
from repro.taint.policies import effective_complexity, propagate
from repro.taint.space import Complexity, Granularity, TaintOption, TaintScheme, UnitLevel


@dataclass
class TaintSources:
    """Where taint originates: initial register taint and input taint.

    Masks are per-bit; at WORD/MODULE granularity any non-zero mask
    means "tainted".  Use ``-1`` for "all bits".
    """

    registers: Dict[str, int] = field(default_factory=dict)
    inputs: Dict[str, int] = field(default_factory=dict)

    def register_mask(self, name: str, width: int) -> int:
        return self.registers.get(name, 0) & ((1 << width) - 1)

    def input_mask(self, name: str, width: int) -> int:
        return self.inputs.get(name, 0) & ((1 << width) - 1)


class InstrumentationError(RuntimeError):
    pass


@dataclass
class InstrumentedDesign:
    """The result of the instrumentation pass."""

    original: Circuit
    circuit: Circuit
    scheme: TaintScheme
    sources: TaintSources
    taint_name: Dict[str, str]              # original signal -> taint signal
    module_taint: Dict[str, str]            # blackbox region -> taint reg name
    applied_options: Dict[str, TaintOption] # cell out name -> option used
    region_of_cell: Dict[str, Optional[str]]  # cell out name -> blackbox region
    #: For GATE unit-level schemes: the uninstrumented *gate-level*
    #: circuit whose signal names ``taint_name`` refers to (``original``
    #: stays the cell-level design for overhead baselines).
    gate_level_original: Optional[Circuit] = None
    #: Non-fatal findings the pass surfaced (scheme entries and taint
    #: sources that matched nothing — historically silently ignored).
    warnings: object = None
    #: Where each source cell's taint logic sits in ``circuit.cells``,
    #: for :func:`instrument`'s ``previous=`` (see :class:`_Fragments`).
    fragments: Optional["_Fragments"] = field(default=None, repr=False, compare=False)

    @property
    def uninstrumented(self) -> Circuit:
        """The design the taint maps actually refer to."""
        return self.gate_level_original or self.original

    def taint_signal(self, original_name: str) -> Signal:
        return self.circuit.signal(self.taint_name[original_name])

    def has_taint(self, original_name: str) -> bool:
        return original_name in self.taint_name

    # ------------------------------------------------------------------
    def add_taint_monitor(
        self, sink_names: Sequence[str], out_name: str = "taint_bad"
    ) -> str:
        """Append an OUTPUT that is 1 when any sink's taint is non-zero."""
        em = Emitter(self.circuit, tag="mon")
        bits = [em.redor(self.taint_signal(n), "_monitor") for n in sink_names]
        any_taint = em.or_tree(bits, "_monitor")
        out = Signal(out_name, 1, SignalKind.OUTPUT, module="_monitor")
        self.circuit.add_cell(Cell(CellOp.BUF, out, (any_taint,), module="_monitor"))
        return out_name

    def add_gated_clean_monitor(
        self, pairs: Sequence[Tuple[str, str]], out_name: str = "taint_gated_clean"
    ) -> str:
        """Append an OUTPUT that is 1 unless a gated taint fires.

        ``pairs`` are ``(condition_signal, value_signal)``: the monitor
        is 0 in a cycle where some condition *value* is 1 while the
        corresponding value signal's *taint* is non-zero.  This is the
        shadow-logic form of the contract constraint ("whenever the ISA
        machine commits, its observation must be untainted") — it uses
        the condition's value, not its taint, so a tainted condition
        cannot mask violations on the assertion side.
        """
        em = Emitter(self.circuit, tag="mon")
        fired = []
        for cond_name, value_name in pairs:
            cond = self.circuit.signal(cond_name)
            cond1 = em.redor(cond, "_monitor")
            taint = em.redor(self.taint_signal(value_name), "_monitor")
            fired.append(em.and_(cond1, taint, module="_monitor"))
        clean = em.not_(em.or_tree(fired, "_monitor"), "_monitor")
        out = Signal(out_name, 1, SignalKind.OUTPUT, module="_monitor")
        self.circuit.add_cell(Cell(CellOp.BUF, out, (clean,), module="_monitor"))
        return out_name

    def add_zero_taint_monitor(
        self, names: Sequence[str], out_name: str = "taint_clean"
    ) -> str:
        """Append an OUTPUT that is 1 when none of the signals is tainted.

        Used as a per-cycle *assumption* (e.g. the contract constraint:
        the ISA machine's observation taint stays 0).
        """
        em = Emitter(self.circuit, tag="mon")
        bits = [em.redor(self.taint_signal(n), "_monitor") for n in names]
        any_taint = em.or_tree(bits, "_monitor")
        clean = em.not_(any_taint, "_monitor")
        out = Signal(out_name, 1, SignalKind.OUTPUT, module="_monitor")
        self.circuit.add_cell(Cell(CellOp.BUF, out, (clean,), module="_monitor"))
        return out_name


def instrument(
    circuit: Circuit,
    scheme: TaintScheme,
    sources: Optional[TaintSources] = None,
    previous: Optional[InstrumentedDesign] = None,
) -> InstrumentedDesign:
    """Run the instrumentation pass and return the instrumented design.

    The result's ``warnings`` is a :class:`~repro.lint.LintReport` of
    non-fatal findings: scheme overrides and taint sources referencing
    cells, registers, or modules the design does not have.  The pass
    ignores such entries when generating logic (a stale override is not
    an error), but a silent typo in a source name has historically
    meant "verifying nothing", so they are surfaced here.

    ``previous`` is an earlier instrumentation of the same, unchanged
    ``circuit`` with the same ``sources`` (typically the design a
    refinement step starts from).  The taint logic of every source cell
    whose region, applied option and input taint signals (name and
    width) are unchanged is then copied from it instead of emitted
    again; the result equals a fresh instrumentation, cell for cell.
    A GATE unit-level scheme, or a ``previous`` that does not match,
    runs the pass in full.
    """
    sources = sources or TaintSources()
    if scheme.unit_level is UnitLevel.GATE:
        design = _instrument_gate_level(circuit, scheme, sources)
    else:
        design = _Instrumenter(circuit, scheme, sources, previous).run()
    from repro.lint.diagnostics import LintReport
    from repro.lint.structural import scheme_reference_diagnostics

    report = LintReport(design.circuit.name)
    report.extend(scheme_reference_diagnostics(circuit, scheme, sources))
    report.sort()
    design.warnings = report
    return design


def _instrument_gate_level(
    circuit: Circuit, scheme: TaintScheme, sources: TaintSources
) -> InstrumentedDesign:
    """GATE unit level: lower to gates, then instrument the gates.

    Source masks given on original names are projected onto the per-bit
    gate registers/inputs.
    """
    lowered = lower_to_gates(circuit)
    gate_sources = TaintSources()
    for orig_name, bit_sigs in lowered.bits.items():
        reg_mask = sources.registers.get(orig_name)
        in_mask = sources.inputs.get(orig_name)
        for i, bit_sig in enumerate(bit_sigs):
            if reg_mask is not None and (reg_mask >> i) & 1:
                gate_sources.registers[bit_sig.name] = 1
            if in_mask is not None and (in_mask >> i) & 1:
                gate_sources.inputs[bit_sig.name] = 1
    gate_scheme = scheme.copy()
    result = _Instrumenter(lowered.circuit, gate_scheme, gate_sources).run()
    result.gate_level_original = lowered.circuit
    result.original = circuit
    return result


@dataclass
class _Fragments:
    """Where an instrumentation put each source cell's taint logic.

    The fragment of ``circuit.cells[i]`` (the cells emitted for it) is
    ``circuit.cells[start[i]:end[i]]`` of the instrumented circuit, and
    ``consts[i]`` is the Emitter's constant log for it when not empty
    (see ``Emitter.adopt_consts``).  ``start[i]`` is -1 for a cell
    inside a region, and for a fragment that also emitted a region's
    output taint on first use: that logic is not the cell's own, so
    such a fragment is always emitted again.  ``topo`` is the source
    circuit's ``topo_cells()`` list; a circuit changed since drops that
    memo, so a ``topo_cells()`` that is not this very list means the
    fragments no longer apply.
    """

    topo: List[Cell]
    start: array
    end: array
    consts: Dict[int, tuple] = field(default_factory=dict)


class _Instrumenter:
    def __init__(self, circuit: Circuit, scheme: TaintScheme, sources: TaintSources,
                 previous: Optional[InstrumentedDesign] = None) -> None:
        circuit.validate()
        self.src = circuit
        self.scheme = scheme
        self.sources = sources
        self.inst = circuit.clone(f"{circuit.name}+{scheme.name}")
        self.em = Emitter(self.inst)
        topo = circuit.topo_cells()
        unset = array("l", [-1]) * len(circuit.cells)
        self.fragments = _Fragments(topo, unset, array("l", unset))
        #: The design fragments are copied from, if it fits this run.
        self.previous: Optional[InstrumentedDesign] = None
        if (previous is not None and previous.fragments is not None
                and previous.fragments.topo is topo
                and previous.sources == sources):
            self.previous = previous
        self._regions: Dict[str, Optional[str]] = {}
        #: Applied option per (cell op, requested option).
        self._options: Dict[Tuple[CellOp, TaintOption], TaintOption] = {}
        #: ``[start, end)`` of ``previous.circuit.cells`` copied but not
        #: appended yet.
        self._pending: Tuple[int, int] = (0, 0)
        self.taint_of: Dict[str, Signal] = {}
        self.module_taint: Dict[str, Signal] = {}
        self.applied: Dict[str, TaintOption] = {}
        self.region_of_cell: Dict[str, Optional[str]] = {}
        self._entering: Dict[str, Set[str]] = {}   # region -> names entering it
        self._cone_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._region_out_cache: Dict[str, Signal] = {}
        self._producer_region: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    def run(self) -> InstrumentedDesign:
        self._classify_producers()
        self._declare_blackbox_bits()
        self._declare_register_taints()
        self._taint_inputs()
        index_of = {cell.out.name: i for i, cell in enumerate(self.src.cells)}
        for cell in self.fragments.topo:
            self._process_cell(index_of[cell.out.name], cell)
        if self.previous is not None:
            self._adopt_pending()
        self._finish_registers()
        self._finish_blackbox_bits()
        self.inst.validate()
        return InstrumentedDesign(
            original=self.src,
            circuit=self.inst,
            scheme=self.scheme,
            sources=self.sources,
            taint_name={name: sig.name for name, sig in self.taint_of.items()},
            module_taint={r: s.name for r, s in self.module_taint.items()},
            applied_options=self.applied,
            region_of_cell=self.region_of_cell,
            fragments=self.fragments,
        )

    # ------------------------------------------------------------------
    def _region(self, module_path: str) -> Optional[str]:
        regions = self._regions
        if module_path in regions:
            return regions[module_path]
        region = self.scheme.effective_region(module_path)
        regions[module_path] = found = region[0] if region else None
        return found

    def _region_kind(self, region: str) -> str:
        return "custom" if region in self.scheme.custom_modules else "blackbox"

    def _classify_producers(self) -> None:
        """Region in which each signal is produced (None = open logic)."""
        for sig in self.src.inputs:
            self._producer_region[sig.name] = None  # top-level inputs are open
        for reg in self.src.registers:
            self._producer_region[reg.q.name] = self._region(reg.q.module)
        for cell in self.src.cells:
            self._producer_region[cell.out.name] = self._region(cell.module)

    def _declare_blackbox_bits(self) -> None:
        regions = set()
        for region in self._producer_region.values():
            if region is not None:
                regions.add(region)
        for cell in self.src.cells:
            region = self._region(cell.module)
            if region is not None:
                regions.add(region)
        for region in sorted(regions):
            self._entering[region] = set()
            if self._region_kind(region) == "custom":
                continue  # handler-managed; no sticky bit
            q = Signal(f"{region}.__bb_taint", 1, SignalKind.REG, module=region)
            self.inst.add_signal(q)
            self.module_taint[region] = q

    def _declare_register_taints(self) -> None:
        self._reg_taint_q: Dict[str, Signal] = {}
        for reg in self.src.registers:
            region = self._region(reg.q.module)
            if region is not None:
                if self._region_kind(region) == "blackbox":
                    self.taint_of[reg.q.name] = self.module_taint[region]
                # custom regions: taints resolved lazily via the handler
                continue
            gran = self.scheme.granularity_for_register(reg.q.name, reg.q.module)
            width = reg.q.width if gran is Granularity.BIT else 1
            q = Signal(f"{reg.q.name}__t", width, SignalKind.REG, module=reg.q.module)
            self.inst.add_signal(q)
            self._reg_taint_q[reg.q.name] = q
            self.taint_of[reg.q.name] = q

    def _taint_inputs(self) -> None:
        self.em.begin_fragment("i")  # input taints are constants, named by value
        for sig in self.src.inputs:
            mask = self.sources.input_mask(sig.name, sig.width)
            if mask == 0:
                taint = self.em.zeros(1, sig.module)
            elif mask == sig.mask:
                taint = self.em.ones(1, sig.module)
            else:
                taint = self.em.const(mask, sig.width, sig.module)
            self.taint_of[sig.name] = taint

    # ------------------------------------------------------------------
    def _taint_expr(self, sig: Signal) -> Signal:
        existing = self.taint_of.get(sig.name)
        if existing is not None:
            return existing
        region = self._producer_region.get(sig.name)
        if region is None:
            raise InstrumentationError(f"no taint available for signal {sig.name!r}")
        taint = self._region_output_taint(region, sig)
        self.taint_of[sig.name] = taint
        return taint

    def _region_output_taint(self, region: str, sig: Signal) -> Signal:
        cached = self._region_out_cache.get(sig.name)
        if cached is not None:
            return cached
        if self._region_kind(region) == "custom":
            handler = self.scheme.custom_modules[region]
            taint = handler.output_taint(
                sig,
                lambda name: self._taint_expr(self.src.signal(name)),
                self.em,
                region,
            )
            self._region_out_cache[sig.name] = taint
            return taint
        entering = self._combinational_cone_entries(region, sig)
        parts = [self.module_taint[region]]
        for name in entering:
            entry_taint = self._taint_expr(self.src.signal(name))
            parts.append(self.em.adapt(entry_taint, 1, region))
        taint = self.em.or_tree(parts, region)
        self._region_out_cache[sig.name] = taint
        return taint

    def _combinational_cone_entries(self, region: str, sig: Signal) -> Tuple[str, ...]:
        """Signals entering ``region`` that can combinationally reach ``sig``."""
        key = (region, sig.name)
        cached = self._cone_cache.get(key)
        if cached is not None:
            return cached
        entries: List[str] = []
        seen: Set[str] = set()
        stack = [sig.name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            current = self.src.signal(name)
            if self.src.register_of(current) is not None:
                if self._region(current.module) == region:
                    continue  # covered by the region's sticky bit
                entries.append(name)  # external state entering the region
                continue
            producer = self.src.producer(current)
            if producer is None:
                if current.kind is SignalKind.INPUT:
                    entries.append(name)
                continue
            if self._region(producer.module) != region:
                entries.append(name)
                continue
            for fan_in in producer.ins:
                stack.append(fan_in.name)
        result = tuple(sorted(entries))
        self._cone_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def _process_cell(self, index: int, cell: Cell) -> None:
        region = self._region(cell.module)
        self.region_of_cell[cell.out.name] = region
        if region is not None:
            for sig in cell.ins:
                if self._producer_region.get(sig.name) != region:
                    self._entering[region].add(sig.name)
            return
        requested = self.scheme.option_for_cell(cell.out.name, cell.module)
        option = self._options.get((cell.op, requested))
        if option is None:
            complexity = effective_complexity(cell.op, requested)
            option = TaintOption(requested.granularity, complexity)
            self._options[(cell.op, requested)] = option
        self.applied[cell.out.name] = option
        taint_of = self.taint_of
        in_taints = [taint_of.get(sig.name) for sig in cell.ins]
        own = None not in in_taints  # no region output taint to emit first
        if self.previous is not None:
            if own and self._copy_fragment(index, cell, option, in_taints):
                return
            self._adopt_pending()
        em = self.em
        start = len(self.inst.cells)
        em.begin_fragment(index)
        if not own:
            in_taints = [self._taint_expr(sig) for sig in cell.ins]
        taint = propagate(cell, option, in_taints, em)
        taint_of[cell.out.name] = em.buf(taint, cell.module, name=f"{cell.out.name}__t")
        if own:
            self._record(index, start, len(self.inst.cells), em.const_log)

    def _record(self, index: int, start: int, end: int, consts: Sequence) -> None:
        fragments = self.fragments
        fragments.start[index] = start
        fragments.end[index] = end
        if consts:
            fragments.consts[index] = tuple(consts)

    def _copy_fragment(self, index: int, cell: Cell, option: TaintOption,
                       in_taints: List[Signal]) -> bool:
        """Copy ``cell``'s fragment from the previous design if emitting
        it again would give the same cells; returns whether it did.

        Copies of fragments that sit back to back in the previous
        design are adopted as one run (see :meth:`_adopt_pending`).
        """
        previous = self.previous
        old = previous.fragments
        start = old.start[index]
        if start < 0:
            return False
        # Only a cell outside every region has a fragment, and this one
        # is outside every region now: its region is unchanged.
        name = cell.out.name
        if previous.applied_options[name] != option:
            return False
        old_taint = previous.taint_name
        old_signals = previous.circuit.signals
        for sig, taint in zip(cell.ins, in_taints):
            old_name = old_taint[sig.name]
            if old_name != taint.name or old_signals[old_name].width != taint.width:
                return False
        consts = old.consts.get(index, ())
        if consts and not self.em.adopt_consts(consts):
            return False
        end = old.end[index]
        run_start, run_end = self._pending
        if run_end != start:
            self._adopt_pending()
            run_start = start
        self._pending = (run_start, end)
        at = len(self.inst.cells) + start - run_start
        self.taint_of[name] = previous.circuit.cells[end - 1].out
        self._record(index, at, at + end - start, consts)
        return True

    def _adopt_pending(self) -> None:
        """Append the run of copied cells not appended yet."""
        start, end = self._pending
        if end > start:
            self.inst.adopt_cells(self.previous.circuit.cells[start:end])
        self._pending = (0, 0)

    def _finish_registers(self) -> None:
        for i, reg in enumerate(self.src.registers):
            q = self._reg_taint_q.get(reg.q.name)
            if q is None:
                continue  # blackboxed
            self.em.begin_fragment(f"r{i}")
            d_taint = self._taint_expr(self.src.signal(reg.d.name))
            d_taint = self.em.adapt(d_taint, q.width, reg.q.module)
            mask = self.sources.register_mask(reg.q.name, reg.q.width)
            if q.width == 1:
                reset = 1 if mask else 0
            else:
                reset = mask
            self.inst.add_register(Register(q, d_taint, reset))

    def _finish_blackbox_bits(self) -> None:
        # Register next-values computed outside their blackbox also carry
        # taint into the region.
        for reg in self.src.registers:
            region = self._region(reg.q.module)
            if region is not None and self._producer_region.get(reg.d.name) != region:
                self._entering[region].add(reg.d.name)
        for i, (region, q) in enumerate(self.module_taint.items()):
            self.em.begin_fragment(f"b{i}")
            parts = [q]
            for name in sorted(self._entering[region]):
                taint = self._taint_expr(self.src.signal(name))
                parts.append(self.em.adapt(taint, 1, region))
            d = self.em.or_tree(parts, region)
            reset = 0
            for reg in self.src.registers:
                if self._region(reg.q.module) == region:
                    if self.sources.register_mask(reg.q.name, reg.q.width):
                        reset = 1
            self.inst.add_register(Register(q, d, reset))
