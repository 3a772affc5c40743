"""Falsely-tainted signal tests (paper Section 4 and Section 5.3).

Two tests, one cheap and one exact:

- :class:`FastFalseTaintOracle` — the paper's *fast test*: re-simulate
  the counterexample with every secret bit flipped; a tainted signal
  whose value did not change is *claimed* falsely tainted.  May
  over-claim (leading to extra, but sound, refinements) — exactly the
  trade-off Section 5.3 describes.
- :func:`exact_false_taint_check` — the model-checking test: two copies
  of the original design, copy 1 fully concrete from the
  counterexample, copy 2 identical except the secret state is symbolic;
  the signal is falsely tainted iff the copies provably agree on it for
  the length of the trace.  This is the counterexample-validation step
  of the CEGAR loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.hdl.circuit import Circuit
from repro.formal.bmc import BmcStatus, bounded_model_check
from repro.formal.counterexample import Counterexample
from repro.formal.product import self_composition
from repro.formal.properties import SafetyProperty
from repro.sim.simulator import Simulator


@dataclass
class SecretSpec:
    """Which state carries the secret: register name -> tainted-bit mask."""

    registers: Dict[str, int]

    @classmethod
    def from_sources(cls, sources) -> "SecretSpec":
        return cls(registers=dict(sources.registers))

    def flip(self, initial_state: Mapping[str, int], widths: Mapping[str, int],
             resets: Mapping[str, int]) -> Dict[str, int]:
        """``initial_state`` with every secret bit flipped.

        A secret register that ``initial_state`` leaves out (a model
        checker's counterexample omits registers its cone-of-influence
        reduction pruned) starts from its value in ``resets``, the
        value a replay gives it.
        """
        flipped = dict(initial_state)
        for name, mask in self.registers.items():
            value = flipped.get(name, resets.get(name))
            if value is not None:
                width_mask = (1 << widths[name]) - 1
                flipped[name] = (value ^ (mask & width_mask)) & width_mask
        return flipped


class FastFalseTaintOracle:
    """Simulation-based approximation of "is this signal falsely tainted?".

    Replays the counterexample twice on the *original* design — once
    as-is and once with all secret bits flipped — and compares signal
    values pointwise.
    """

    def __init__(
        self,
        circuit: Circuit,
        cex: Counterexample,
        secrets: SecretSpec,
    ) -> None:
        widths = {reg.q.name: reg.q.width for reg in circuit.registers}
        resets = {reg.q.name: reg.reset_value for reg in circuit.registers}
        flipped_cex = cex.with_initial_state(
            secrets.flip(cex.initial_state, widths, resets))
        sim = Simulator(circuit)
        self.baseline = cex.replay_on(sim)
        self.flipped = flipped_cex.replay_on(sim)

    def value_changed(self, signal_name: str, cycle: int) -> bool:
        return self.baseline.value(signal_name, cycle) != self.flipped.value(signal_name, cycle)

    def is_falsely_tainted(self, signal_name: str, cycle: int) -> bool:
        """True when flipping the secret did not move this signal's value.

        (Only meaningful for signals that *are* tainted at this cycle.)
        """
        return not self.value_changed(signal_name, cycle)


class ExactValidator:
    """Cached exact false-taint checker for one design.

    Building the two-copy product and lowering it to gates dominates the
    cost of a single :func:`exact_false_taint_check` call; across a CEGAR
    run the *design* never changes (only the counterexample does), so
    this class builds the product once, pre-installs difference monitors
    for every signal of interest, and lowers once.
    """

    def __init__(
        self,
        circuit: Circuit,
        secret_registers: Iterable[str],
        monitored_signals: Sequence[str],
        init_assumption_outputs: Sequence[str] = (),
    ) -> None:
        from repro.hdl.lowering import LoweredCircuit, lower_to_gates
        from repro.hdl.optimize import eliminate_dead

        self.circuit = circuit
        self.secret_registers = set(secret_registers)
        shared = {sig.name for sig in circuit.inputs}
        self.product = self_composition(circuit, shared_inputs=shared)
        self.bad_of = {name: self.product.differs(name) for name in monitored_signals}
        self.init_assumptions = tuple(
            self.product.c2(name) for name in init_assumption_outputs
        )
        self.product.circuit.validate()
        # The product's gates are folded and hashed as they are lowered,
        # and stay flat: the frame compiler checks the netlist once.
        lowered = lower_to_gates(self.product.circuit, hashed=True)
        self.lowered = LoweredCircuit(None, lowered.bits,
                                      netlist=eliminate_dead(lowered.netlist))

    def is_falsely_tainted(
        self, cex: Counterexample, signal_name: str,
        time_limit: Optional[float] = None,
    ) -> bool:
        bad = self.bad_of.get(signal_name)
        if bad is None:
            # Signal not pre-monitored: fall back to the uncached path.
            return exact_false_taint_check(
                self.circuit, cex, self.secret_registers, signal_name,
                time_limit=time_limit,
                init_assumption_outputs=[
                    n[len(self.product.prefix2) + 1:] for n in self.init_assumptions
                ],
            )
        return _false_taint_query(
            self.lowered, self.circuit, self.product, cex,
            self.secret_registers, signal_name, bad, self.init_assumptions,
            time_limit)


def exact_false_taint_check(
    circuit: Circuit,
    cex: Counterexample,
    secret_registers: Iterable[str],
    signal_name: str,
    time_limit: Optional[float] = None,
    init_assumption_outputs: Sequence[str] = (),
) -> bool:
    """Exact test: is ``signal_name`` falsely tainted in this trace?

    Returns True (falsely tainted / spurious) when the model checker
    proves the signal equal in both copies for the whole trace length;
    False when some secret valuation makes it differ (truly tainted).

    As the paper notes, this check is lightweight: all public inputs are
    concrete, only copy 2's secret state is symbolic, and the check is
    bounded by the counterexample length.
    """
    shared = {sig.name for sig in circuit.inputs}
    product = self_composition(circuit, shared_inputs=shared)
    bad = product.differs(signal_name)
    product.circuit.validate()
    # Structural invariants of the design (e.g. "shadow ISA memory equals
    # DUV memory at reset") must also hold inside the symbolic copy.
    init_assumptions = tuple(product.c2(name) for name in init_assumption_outputs)
    # The unlowered product: BMC lowers only the cone of this signal's
    # difference monitor.
    return _false_taint_query(
        product.circuit, circuit, product, cex, set(secret_registers),
        signal_name, bad, init_assumptions, time_limit)


def _false_taint_query(
    model,
    circuit: Circuit,
    product,
    cex: Counterexample,
    secret_registers: Set[str],
    signal_name: str,
    bad: str,
    init_assumptions: Tuple[str, ...],
    time_limit: Optional[float],
) -> bool:
    """Model-check one ``false-taint:<signal>`` query on the product.

    Copy 1 starts from the counterexample's state and copy 2 from the
    same state except that its secret registers are symbolic; both see
    the counterexample's inputs.  ``model`` is ``product.circuit`` or a
    lowering of it, and ``bad`` the monitor of the two copies' values of
    ``signal_name`` differing.  True (falsely tainted) when no secret
    valuation makes the copies differ for the length of the trace.
    """
    initial_values: Dict[str, int] = {}
    symbolic: Set[str] = set()
    for reg in circuit.registers:
        value = cex.initial_state.get(reg.q.name, reg.reset_value)
        initial_values[product.c1(reg.q.name)] = value
        if reg.q.name in secret_registers:
            symbolic.add(product.c2(reg.q.name))
        else:
            initial_values[product.c2(reg.q.name)] = value
    prop = SafetyProperty(
        name=f"false-taint:{signal_name}",
        bad=bad,
        init_assumptions=init_assumptions,
        symbolic_registers=frozenset(symbolic),
    )
    result = bounded_model_check(
        model,
        prop,
        max_bound=cex.length - 1,
        time_limit=time_limit,
        initial_values=initial_values,
        input_constraints=[dict(frame) for frame in cex.inputs],
    )
    return result.status is BmcStatus.BOUND_REACHED
