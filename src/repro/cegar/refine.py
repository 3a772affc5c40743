"""Refinement strategy (paper Section 5.4, Figure 4).

At an identified refinement location, candidate taint options are tried
in a fixed overhead order — first raising logic complexity, then bit
granularity — and the first option that locally flips the falsely
tainted bit from 1 to 0 is kept.  If no option helps, the imprecision
is correlation-based and a :class:`CorrelationImprecisionAlert` is
raised for the user (Section 3.2: beyond Compass's scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hdl.circuit import Circuit
from repro.formal.counterexample import Counterexample
from repro.obs import NULL_TRACER
from repro.sim.waveform import Waveform
from repro.taint.instrument import InstrumentedDesign, TaintSources, instrument
from repro.taint.policies import effective_complexity
from repro.taint.space import Granularity, TaintOption, TaintScheme, refinement_ladder
from repro.cegar.backtrace import LocationKind, RefinementLocation


class CorrelationImprecisionAlert(RuntimeError):
    """No local refinement blocks the false flow: the imprecision is
    correlation-based and needs manual, module-level custom taint logic."""

    def __init__(self, location: RefinementLocation) -> None:
        super().__init__(
            f"no refinement option at {location} blocks the false taint; "
            "the imprecision is likely correlation-based (Section 3.2) — "
            "provide custom module-level taint logic"
        )
        self.location = location


@dataclass
class RefinementOutcome:
    """Result of one refinement application.

    ``design`` is the new scheme's instrumentation and ``waveform`` the
    counterexample replayed on it; the CEGAR loop keeps both.
    """

    scheme: TaintScheme
    design: InstrumentedDesign
    waveform: Waveform
    location: RefinementLocation
    description: str


def _reinstrument(
    circuit: Circuit,
    sources: TaintSources,
    scheme: TaintScheme,
    previous: InstrumentedDesign,
    cex: Counterexample,
    tracer,
    location: RefinementLocation,
    option: str,
) -> Tuple[InstrumentedDesign, Waveform]:
    """Instrument one ladder option and replay the counterexample on it:
    a ``cegar.refine-gen`` and a ``cegar.refine-sim`` span.

    The taint logic the option leaves unchanged is copied from
    ``previous``, the design the refinement starts from.
    """
    args = {"location": location.name, "option": option}
    with tracer.span("cegar.refine-gen", cat="gen", **args):
        design = instrument(circuit, scheme, sources, previous=previous)
    with tracer.span("cegar.refine-sim", cat="simu", **args):
        waveform = cex.replay(design.circuit)
    return design, waveform


def _taint_value(design: InstrumentedDesign, waveform: Waveform, name: str, cycle: int) -> int:
    taint_name = design.taint_name.get(name)
    if taint_name is None or not waveform.has_signal(taint_name):
        return 1  # inside a blackbox: conservatively tainted
    return waveform.value(taint_name, cycle)


def apply_refinement(
    circuit: Circuit,
    sources: TaintSources,
    scheme: TaintScheme,
    design: InstrumentedDesign,
    location: RefinementLocation,
    cex: Counterexample,
    tracer=None,
) -> RefinementOutcome:
    """Refine ``scheme`` at ``location``; returns the new scheme/design.

    Every option tried is timed by ``tracer`` (see :func:`_reinstrument`).
    Raises :class:`CorrelationImprecisionAlert` when every candidate
    fails the local flip test at a CELL location.
    """
    tracer = tracer or NULL_TRACER
    if location.kind is LocationKind.MODULE:
        new_scheme = scheme.copy()
        new_scheme.open_blackbox(location.name)
        new_design, waveform = _reinstrument(circuit, sources, new_scheme, design,
                                             cex, tracer, location, "open")
        return RefinementOutcome(
            new_scheme, new_design, waveform, location,
            f"open blackbox {location.name}",
        )

    if location.kind is LocationKind.REGISTER:
        current = scheme.granularity_for_register(location.name)
        if current is Granularity.BIT:
            raise CorrelationImprecisionAlert(location)
        new_scheme = scheme.copy()
        new_scheme.refine_register(location.name, Granularity.BIT)
        new_design, waveform = _reinstrument(circuit, sources, new_scheme, design,
                                             cex, tracer, location, "bit")
        return RefinementOutcome(
            new_scheme, new_design, waveform, location,
            f"register {location.name}: word -> bit granularity",
        )

    if location.kind is LocationKind.SOURCE:
        # Tracing reached a taint source: the flow up to here is real;
        # treat as correlation-type imprecision that local cuts cannot fix.
        raise CorrelationImprecisionAlert(location)

    # CELL location: walk the Figure 4 ladder.
    cell = circuit.producer(circuit.signal(location.name))
    if cell is None:
        raise CorrelationImprecisionAlert(location)
    current = design.applied_options.get(location.name, scheme.option_for_cell(location.name))
    tried: set = {(current.granularity, effective_complexity(cell.op, current))}
    for option in refinement_ladder(current):
        effective = effective_complexity(cell.op, option)
        key = (option.granularity, effective)
        if key in tried:
            continue  # identical logic to something already tried
        tried.add(key)
        candidate = scheme.copy()
        candidate.refine_cell(location.name, TaintOption(option.granularity, effective))
        label = f"{option.granularity.value}/{effective.value}"
        new_design, waveform = _reinstrument(circuit, sources, candidate, design,
                                             cex, tracer, location, label)
        if _taint_value(new_design, waveform, location.signal, location.cycle) == 0:
            return RefinementOutcome(
                candidate, new_design, waveform, location,
                f"cell {location.name}: {current} -> {label}",
            )
    raise CorrelationImprecisionAlert(location)
