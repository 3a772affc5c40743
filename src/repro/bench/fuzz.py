"""Differential taint fuzzing: empirical soundness checking.

Taint schemes must never produce false negatives (Section 2.2).  This
harness checks that empirically on any design: run the original circuit
with two secret valuations, run the instrumented circuit, and flag any
signal whose value differs across the secret pair while its taint bit is
0.  Used by the test suite on random circuits and available to users as
a sanity check for custom taint handlers (whose soundness is a manual
obligation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.hdl.circuit import Circuit
from repro.sim import Simulator
from repro.taint.instrument import InstrumentedDesign


def random_machine(
    seed: int,
    width: int = 3,
    max_regs: int = 3,
    max_ops: int = 6,
    bad_signal: str = "bad",
) -> Circuit:
    """Generate a small random sequential machine with a ``bad`` output.

    The machine has one free input, 1..``max_regs`` registers with
    random resets, a random dataflow core of 2..``max_ops`` word
    operations (add/sub/and/or/xor/mux), random register feedback, and a
    1-bit ``bad_signal`` output that fires when a randomly chosen value
    hits a random constant.  Deterministic in ``seed``.

    This is the shared workload for differential testing of the formal
    engines: BMC, k-induction, PDR and the portfolio must agree on these
    circuits, and every counterexample must replay in the reference
    simulator.
    """
    from repro.hdl import ModuleBuilder

    rng = random.Random(seed)
    b = ModuleBuilder(f"fuzz{seed}")
    inp = b.input("x", width)
    regs = []
    for i in range(rng.randint(1, max_regs)):
        regs.append(b.reg(f"r{i}", width, reset=rng.randrange(1 << width)))
    values = [inp] + regs
    for _ in range(rng.randint(2, max_ops)):
        op = rng.choice("add sub and or xor mux".split())
        a, c = rng.choice(values), rng.choice(values)
        if op == "add":
            v = a + c
        elif op == "sub":
            v = a - c
        elif op == "and":
            v = a & c
        elif op == "or":
            v = a | c
        elif op == "xor":
            v = a ^ c
        else:
            v = b.mux(a.redor(), a, c)
        values.append(v)
    for reg in regs:
        reg.drive(rng.choice(values))
    target = rng.randrange(1 << width)
    b.output(bad_signal, rng.choice(values[1:]).eq(target))
    return b.build()


@dataclass
class SoundnessViolation:
    """A false negative: value depends on the secret but taint is 0."""

    signal: str
    cycle: int
    value_a: int
    value_b: int

    def __str__(self) -> str:
        return (
            f"{self.signal}@{self.cycle}: {self.value_a} vs {self.value_b} "
            "with taint 0"
        )


@dataclass
class FuzzReport:
    trials: int
    cycles_checked: int
    violations: List[SoundnessViolation] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.violations


def check_soundness_once(
    design: InstrumentedDesign,
    secrets_a: Mapping[str, int],
    secrets_b: Mapping[str, int],
    stimulus: Sequence[Mapping[str, int]],
    base_state: Optional[Mapping[str, int]] = None,
) -> List[SoundnessViolation]:
    """Compare one secret pair under one stimulus; returns violations."""
    return _soundness_violations(
        design, Simulator(design.uninstrumented), Simulator(design.circuit),
        secrets_a, secrets_b, stimulus, base_state)


def _soundness_violations(
    design: InstrumentedDesign,
    plain: Simulator,
    tainted: Simulator,
    secrets_a: Mapping[str, int],
    secrets_b: Mapping[str, int],
    stimulus: Sequence[Mapping[str, int]],
    base_state: Optional[Mapping[str, int]],
) -> List[SoundnessViolation]:
    """:func:`check_soundness_once` on simulators of the original and the
    instrumented design, which it resets."""
    circuit = design.uninstrumented
    init_a = dict(base_state or {})
    init_b = dict(base_state or {})
    init_a.update(secrets_a)
    init_b.update(secrets_b)
    plain.reset(init_a)
    wf_a = plain.run(stimulus)
    plain.reset(init_b)
    wf_b = plain.run(stimulus)
    tainted.reset(init_a)
    wf_t = tainted.run(stimulus)
    violations: List[SoundnessViolation] = []
    for name in circuit.signals:
        taint_name = design.taint_name.get(name)
        if taint_name is None or not wf_t.has_signal(taint_name):
            continue
        for cycle in range(len(stimulus)):
            va, vb = wf_a.value(name, cycle), wf_b.value(name, cycle)
            if va != vb and wf_t.value(taint_name, cycle) == 0:
                violations.append(SoundnessViolation(name, cycle, va, vb))
    return violations


def fuzz_soundness(
    design: InstrumentedDesign,
    trials: int = 25,
    cycles: int = 6,
    seed: int = 0,
    base_state: Optional[Mapping[str, int]] = None,
) -> FuzzReport:
    """Random differential soundness fuzzing of an instrumented design.

    Secrets are the design's taint sources (``design.sources``); inputs
    and secret values are sampled uniformly per trial.  Every trial
    runs on the same two simulators, one of the original design and
    one of the instrumented design, reset per run; the first failing
    trial ends the search.
    """
    rng = random.Random(seed)
    circuit = design.uninstrumented
    report = FuzzReport(trials=trials, cycles_checked=trials * cycles)
    reg_widths = {reg.q.name: reg.q.width for reg in circuit.registers}
    secret_names = [n for n in design.sources.registers if n in reg_widths]
    input_sigs = list(circuit.inputs)
    plain, tainted = Simulator(circuit), Simulator(design.circuit)
    for _ in range(trials):
        secrets_a = {n: rng.getrandbits(reg_widths[n]) for n in secret_names}
        secrets_b = {n: rng.getrandbits(reg_widths[n]) for n in secret_names}
        stimulus = [
            {sig.name: rng.getrandbits(sig.width) for sig in input_sigs}
            for _ in range(cycles)
        ]
        report.violations.extend(_soundness_violations(
            design, plain, tainted, secrets_a, secrets_b, stimulus, base_state))
        if report.violations:
            break  # one counterexample is enough to fail a check
    return report
