"""Bounded model checking (the paper's ``Ht`` bounded engine).

Given a safety property, BMC unrolls the design frame by frame and asks
the SAT solver for a violation at each depth.  Outcomes mirror the
paper's Section 4 step 2: a *counterexample*, or a *bounded proof* up to
the depth reached within the compute budget.
"""

from __future__ import annotations

import enum
import hashlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit, lower_to_gates
from repro.hdl.netlist import Netlist
from repro.formal.cache import CachedVerdict, SolveCache, solve_key
from repro.formal.counterexample import Counterexample
from repro.formal.properties import SafetyProperty
from repro.formal.sat.solver import Solver, SolveStatus
from repro.formal.unroll import Unroller
from repro.obs import NULL_TRACER


def record_solver_stats(tracer, span, result) -> None:
    """Attach one SAT call's search counters to its span and totals.

    Shared by the engines: the per-solve conflict/decision/propagation/
    learned-clause/restart figures land as span args (visible on the
    frame in a trace viewer) and as global counter totals.
    """
    span.set(
        conflicts=result.conflicts,
        decisions=result.decisions,
        propagations=result.propagations,
        learned=result.learned,
        restarts=result.restarts,
    )
    tracer.count("sat.conflicts", result.conflicts)
    tracer.count("sat.decisions", result.decisions)
    tracer.count("sat.propagations", result.propagations)
    tracer.count("sat.learned", result.learned)
    tracer.count("sat.restarts", result.restarts)


class BmcStatus(enum.Enum):
    COUNTEREXAMPLE = "counterexample"
    BOUND_REACHED = "bound_reached"   # no violation up to max_bound
    TIMEOUT = "timeout"               # budget exhausted mid-way


@dataclass
class BmcResult:
    status: BmcStatus
    bound: int                        # deepest cycle index proven violation-free
    counterexample: Optional[Counterexample] = None
    elapsed: float = 0.0
    frames_solved: int = 0

    @property
    def found_cex(self) -> bool:
        return self.status is BmcStatus.COUNTEREXAMPLE


#: Digest-keyed LRU of lowered and reduced netlists, shared by
#: every engine in the process (BMC, k-induction, PDR, portfolio
#: dispatch, CEGAR iterations).  Keyed on content digests
#: (:func:`_content_key`), so a re-instrumented but structurally
#: identical circuit still hits.
_LOWERED_CACHE: "OrderedDict[tuple, LoweredCircuit]" = OrderedDict()
_LOWERED_CACHE_MAX = 32


def _content_key(circuit: Circuit) -> str:
    """Digest of a circuit's content, in construction order.

    The key of :data:`_LOWERED_CACHE`, which never leaves the process:
    ``repr`` of the flat netlist's tuples of names and numbers is
    unambiguous, and hashing it costs about a quarter of
    :func:`repro.formal.cache.circuit_fingerprint`, whose canonical
    JSON document is the solve-cache and store key.
    """
    net = Netlist.from_circuit(circuit)
    text = repr((net.name, net.signals, net.registers, net.cells))
    return hashlib.sha256(text.encode()).hexdigest()


def _property_roots(lowered: LoweredCircuit, prop: SafetyProperty) -> List[str]:
    """Gate-level signal names the property can observe."""
    roots: List[str] = []
    names = [prop.bad]
    names.extend(prop.assumptions)
    names.extend(prop.init_assumptions)
    for name in names:
        for sig in lowered.bits[name]:
            roots.append(sig.name)
    return roots


def _as_lowered(
    circuit: Union[Circuit, LoweredCircuit],
    prop: Optional[SafetyProperty] = None,
) -> LoweredCircuit:
    """Lower and property-reduce a circuit for SAT encoding.

    The circuit is lowered hashed (``lower_to_gates(circuit,
    hashed=True)``): every gate is folded and hash-consed as it is
    emitted, by the rules :func:`repro.hdl.optimize.strash` applies,
    so duplicated shadow logic collapses while it is built.  Inputs,
    registers and outputs keep their names, which is everything BMC
    needs to extract counterexamples and locate property/assumption
    signals.  When ``prop`` is given, the netlist is then restricted to
    the cone of influence of the property's ``bad``/assumption signals
    (:func:`repro.hdl.optimize.cone_of_influence`), so logic the
    property cannot observe never reaches the encoder; without one,
    dead logic is dropped (:func:`repro.hdl.optimize.eliminate_dead`).
    ``strash(cone_of_influence(simplify(raw lowering)))`` is this
    pipeline's reference, kept for tests.

    The result is flat: its ``netlist`` is the last pass's output, and
    no ``Circuit`` is built or validated here.  The frame compiler
    checks the netlist's structure once, in its topological pass;
    ``LoweredCircuit.circuit`` is built only when something reads it.

    Results are memoized in a digest-keyed LRU shared across engines:
    the portfolio's BMC and induction engines, the induction base case,
    and successive CEGAR verify calls all re-lower the same content
    otherwise.  An explicit ``LoweredCircuit`` argument bypasses both
    the cache and the reduction (the caller controls the netlist).
    """
    if isinstance(circuit, LoweredCircuit):
        return circuit
    from repro.formal.cache import property_fingerprint

    key = (
        _content_key(circuit),
        property_fingerprint(prop) if prop is not None else None,
    )
    cached = _LOWERED_CACHE.get(key)
    if cached is not None:
        _LOWERED_CACHE.move_to_end(key)
        return cached
    from repro.hdl.optimize import cone_of_influence, eliminate_dead

    lowered = lower_to_gates(circuit, hashed=True)
    gates = lowered.netlist
    if prop is None:
        result = LoweredCircuit(None, lowered.bits, netlist=eliminate_dead(gates))
    else:
        reduced = cone_of_influence(gates, _property_roots(lowered, prop))
        kept = {q for q, _d, _reset in reduced.registers}
        pruned = {q: reset & 1 for q, _d, reset in gates.registers if q not in kept}
        result = LoweredCircuit(None, lowered.bits, pruned, netlist=reduced)
    _LOWERED_CACHE[key] = result
    while len(_LOWERED_CACHE) > _LOWERED_CACHE_MAX:
        _LOWERED_CACHE.popitem(last=False)
    return result


def _make_unroller(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    initial_values: Optional[Mapping[str, int]],
) -> Unroller:
    return Unroller(
        lowered,
        initial_values=initial_values,
        symbolic_registers=set(prop.symbolic_registers),
        symbolic_all=prop.symbolic_all_registers,
    )


def _constrain_frame(unroller: Unroller, prop: SafetyProperty, frame: int) -> None:
    for name in prop.assumptions:
        unroller.assume_signal(frame, name, 1)
    if frame == 0:
        for name in prop.init_assumptions:
            unroller.assume_signal(0, name, 1)


def extract_counterexample(
    unroller: Unroller, prop: SafetyProperty, model: List[bool], depth: int
) -> Counterexample:
    """Read a word-level stimulus (inputs + initial state) from a model."""
    lowered = unroller.lowered
    input_names = set(lowered.input_names())
    original_inputs = [
        name for name, bit_sigs in lowered.bits.items()
        if bit_sigs and bit_sigs[0].name in input_names
    ]
    original_regs: List[str] = []
    reg_names = {q for q, _d, _reset in lowered.register_entries()}
    for name, bit_sigs in lowered.bits.items():
        if bit_sigs and bit_sigs[0].name in reg_names:
            original_regs.append(name)
    inputs: List[Dict[str, int]] = []
    for frame in range(depth + 1):
        inputs.append({name: unroller.word_value(frame, name, model) for name in original_inputs})
    initial_state = {name: unroller.word_value(0, name, model) for name in original_regs}
    return Counterexample(depth + 1, inputs, initial_state, bad_signal=prop.bad)


def _frame_key(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    depth: int,
    initial_values: Optional[Mapping[str, int]],
    input_constraints: Optional[Sequence[Mapping[str, int]]],
) -> str:
    """Cache key for "is ``bad`` reachable at exactly ``depth``?".

    The answer depends on the netlist, the property, the depth, and any
    concrete pinning of the environment — all of which go into the key.
    """
    pins = None
    if input_constraints is not None:
        pins = [dict(frame) for frame in input_constraints[: depth + 1]]
    params = {
        "depth": depth,
        "init": dict(initial_values) if initial_values else None,
        "pins": pins,
    }
    return solve_key(lowered, prop, "bmc-frame", params)


def bounded_model_check(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    max_bound: int,
    time_limit: Optional[float] = None,
    initial_values: Optional[Mapping[str, int]] = None,
    input_constraints: Optional[Sequence[Mapping[str, int]]] = None,
    start_bound: int = 0,
    max_conflicts: Optional[int] = None,
    cache: Optional[SolveCache] = None,
    tracer=None,
) -> BmcResult:
    """Check ``bad`` at depths ``start_bound..max_bound``.

    Args:
        initial_values: concrete word values overriding register resets
            (used when replaying a counterexample's environment).
        input_constraints: per-frame word values pinning inputs (frames
            beyond the list are unconstrained).
        max_conflicts: per-depth SAT conflict budget; exceeding it ends
            the run with ``TIMEOUT`` (a deterministic alternative to
            ``time_limit`` for reproducible budget tests).
        cache: optional cross-call verdict cache; per-depth results are
            looked up before solving and stored after, so repeated
            questions on an identical netlist skip the SAT solver (the
            k-induction base case and repeated portfolio calls share
            frames this way).
        tracer: optional :class:`repro.obs.Tracer`; records one span
            per frame with the SAT search counters attached.
    """
    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    lowered = _as_lowered(circuit, prop)
    unroller: Optional[Unroller] = None
    frames_solved = 0
    proven = start_bound - 1
    # Depths known clean but whose blocking clause has not been added
    # yet; flushed lazily so fully-cached runs never build an unroller.
    # A deque: long cached prefixes (resumed runs, warm caches) made the
    # old list.pop(0) flush quadratic.
    pending_clean: "deque[int]" = deque()

    def materialize(depth: int) -> Unroller:
        nonlocal unroller
        if unroller is None:
            unroller = _make_unroller(lowered, prop, initial_values)
        while unroller.depth < depth + 1:
            new_frame = unroller.depth
            unroller.add_frame()
            _constrain_frame(unroller, prop, new_frame)
            if input_constraints is not None and new_frame < len(input_constraints):
                for name, value in input_constraints[new_frame].items():
                    unroller.constrain_word(new_frame, name, value)
        while pending_clean:
            clean_depth = pending_clean.popleft()
            unroller.solver.add_clause((-unroller.lit_of_bit(clean_depth, prop.bad),))
        return unroller

    for depth in range(0, max_bound + 1):
        if depth < start_bound:
            # Caller already knows shallower depths are clean.
            pending_clean.append(depth)
            continue
        key = None
        if cache is not None:
            key = _frame_key(lowered, prop, depth, initial_values, input_constraints)
            entry = cache.get(key)
            if entry is not None:
                if entry.status == "sat":
                    return BmcResult(
                        BmcStatus.COUNTEREXAMPLE, proven, entry.counterexample,
                        elapsed=time.monotonic() - started, frames_solved=frames_solved,
                    )
                proven = depth
                pending_clean.append(depth)
                continue
        active = materialize(depth)
        bad_lit = active.lit_of_bit(depth, prop.bad)
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.monotonic() - started)
            if remaining <= 0:
                return BmcResult(BmcStatus.TIMEOUT, proven, elapsed=time.monotonic() - started,
                                 frames_solved=frames_solved)
        with tracer.span("bmc.frame", cat="engine", depth=depth) as span:
            result = active.solver.solve(
                assumptions=[bad_lit], time_limit=remaining, max_conflicts=max_conflicts,
            )
            if tracer.enabled:
                span.set(status=result.status.value)
                record_solver_stats(tracer, span, result)
        frames_solved += 1
        if result.status is SolveStatus.SAT:
            cex = extract_counterexample(active, prop, result.model, depth)
            if cache is not None:
                cache.put(key, CachedVerdict("sat", bound=depth, counterexample=cex))
            return BmcResult(
                BmcStatus.COUNTEREXAMPLE, proven, cex,
                elapsed=time.monotonic() - started, frames_solved=frames_solved,
            )
        if result.status is SolveStatus.UNKNOWN:
            return BmcResult(BmcStatus.TIMEOUT, proven, elapsed=time.monotonic() - started,
                             frames_solved=frames_solved)
        if cache is not None:
            cache.put(key, CachedVerdict("unsat", bound=depth))
        proven = depth
        active.solver.add_clause((-bad_lit,))
    return BmcResult(BmcStatus.BOUND_REACHED, proven, elapsed=time.monotonic() - started,
                     frames_solved=frames_solved)
