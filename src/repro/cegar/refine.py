"""Refinement strategy (paper Section 5.4, Figure 4).

At an identified refinement location, candidate taint options are tried
in a fixed overhead order — first raising logic complexity, then bit
granularity — and the first option that locally flips the falsely
tainted bit from 1 to 0 is kept.  If no option helps, the imprecision
is correlation-based and a :class:`CorrelationImprecisionAlert` is
raised for the user (Section 3.2: beyond Compass's scope).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdl.circuit import Circuit
from repro.formal.counterexample import Counterexample
from repro.sim.waveform import Waveform
from repro.taint.instrument import InstrumentedDesign, TaintSources, instrument
from repro.taint.policies import distinct_complexities, effective_complexity
from repro.taint.space import Complexity, Granularity, TaintOption, TaintScheme, refinement_ladder
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
    gen_time: float = 0.0
    sim_time: float = 0.0


def _reinstrument(
    circuit: Circuit,
    sources: TaintSources,
    scheme: TaintScheme,
    cex: Counterexample,
) -> Tuple[InstrumentedDesign, Waveform, float, float]:
    t0 = time.monotonic()
    design = instrument(circuit, scheme, sources)
    gen_time = time.monotonic() - t0
    t0 = time.monotonic()
    waveform = cex.replay(design.circuit)
    sim_time = time.monotonic() - t0
    return design, waveform, gen_time, sim_time


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
) -> RefinementOutcome:
    """Refine ``scheme`` at ``location``; returns the new scheme/design.

    Raises :class:`CorrelationImprecisionAlert` when every candidate
    fails the local flip test at a CELL location.
    """
    if location.kind is LocationKind.MODULE:
        new_scheme = scheme.copy()
        new_scheme.open_blackbox(location.name)
        new_design, waveform, t_gen, t_sim = _reinstrument(circuit, sources, new_scheme, cex)
        return RefinementOutcome(
            new_scheme, new_design, waveform, location,
            f"open blackbox {location.name}", t_gen, t_sim,
        )

    if location.kind is LocationKind.REGISTER:
        current = scheme.granularity_for_register(location.name)
        if current is Granularity.BIT:
            raise CorrelationImprecisionAlert(location)
        new_scheme = scheme.copy()
        new_scheme.refine_register(location.name, Granularity.BIT)
        new_design, waveform, t_gen, t_sim = _reinstrument(circuit, sources, new_scheme, cex)
        return RefinementOutcome(
            new_scheme, new_design, waveform, location,
            f"register {location.name}: word -> bit granularity", t_gen, t_sim,
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
    gen_time = 0.0
    sim_time = 0.0
    tried: set = {(current.granularity, effective_complexity(cell.op, current))}
    for option in refinement_ladder(current):
        effective = effective_complexity(cell.op, option)
        key = (option.granularity, effective)
        if key in tried:
            continue  # identical logic to something already tried
        tried.add(key)
        candidate = scheme.copy()
        candidate.refine_cell(location.name, TaintOption(option.granularity, effective))
        new_design, waveform, t_gen, t_sim = _reinstrument(circuit, sources, candidate, cex)
        gen_time += t_gen
        sim_time += t_sim
        if _taint_value(new_design, waveform, location.signal, location.cycle) == 0:
            return RefinementOutcome(
                candidate, new_design, waveform, location,
                f"cell {location.name}: {current} -> {option.granularity.value}/{effective.value}",
                gen_time, sim_time,
            )
    raise CorrelationImprecisionAlert(location)
