"""Inductive-invariant certificates for PDR proofs, with an
independent checker.

A PROVED verdict from :mod:`repro.formal.pdr` is only as trustworthy as
the engine that produced it.  A :class:`Certificate` makes the verdict
*checkable*: it names the inductive invariant PDR converged on — a
conjunction of clauses over register bits, each literal ``(bit name,
value)`` — in circuit-level terms, independent of any solver literal
numbering.  :func:`check_certificate` then re-establishes the three
conditions that make the invariant a proof, from scratch, on a fresh
solver and a fresh encoding:

1. **Initialisation** — every initial state satisfies the invariant.
   Checked by evaluation against the reset/symbolic initial-state
   spec (no solver involved).
2. **Consecution** — ``Inv ∧ A ∧ T → Inv'`` where ``A`` are the
   property's per-cycle assumption signals: for each clause ``c``,
   the query ``Inv ∧ A ∧ T ∧ ¬c'`` must be UNSAT.
3. **Safety** — ``Inv ∧ A → ¬bad``: the query ``Inv ∧ A ∧ bad`` must
   be UNSAT.

Together these imply no assumption-respecting execution from an
initial state ever reaches ``bad`` — the same statement the engines
make.  The checker shares only the lowering pipeline with PDR: it
encodes the transition relation with the reference
:class:`~repro.formal.encode.FrameEncoder`, where PDR interprets the
lowering's op program, and none of PDR's frames, activation literals
or generalization logic is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.bmc import _as_lowered
from repro.formal.encode import FrameEncoder
from repro.formal.properties import SafetyProperty
from repro.formal.sat.solver import Solver, SolveStatus

# One invariant literal: (gate-level register bit name, required value).
Literal = Tuple[str, int]
# One invariant clause: a disjunction of literals.
Clause = Tuple[Literal, ...]


@dataclass(frozen=True)
class Certificate:
    """An inductive invariant proving a safety property.

    ``clauses`` are conjoined; each clause is a disjunction of
    ``(register bit name, value)`` literals.  The empty conjunction
    (``clauses == ()``) is the trivial invariant ``True`` — it
    certifies properties whose ``bad`` signal is structurally
    unreachable (the safety check alone must pass).
    """

    prop_name: str
    bad: str
    clauses: Tuple[Clause, ...] = ()

    def as_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "prop": self.prop_name,
            "bad": self.bad,
            "clauses": [[[name, value] for name, value in clause]
                        for clause in self.clauses],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        return cls(
            prop_name=data["prop"],
            bad=data["bad"],
            clauses=tuple(
                tuple((str(name), int(value)) for name, value in clause)
                for clause in data["clauses"]
            ),
        )


@dataclass
class CertificateCheck:
    """Outcome of :func:`check_certificate`."""

    ok: bool
    reason: str = ""
    clauses_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _pinned_initial_bits(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    initial_values: Optional[Dict[str, int]],
) -> Dict[str, Optional[int]]:
    """Initial value per register bit name; None for symbolic bits."""
    initial_values = initial_values or {}
    symbolic = prop.symbolic_registers
    sym_all = prop.symbolic_all_registers
    orig_of: Dict[str, Tuple[str, int]] = {}
    for orig, bits in lowered.bits.items():
        for i, sig in enumerate(bits):
            orig_of[sig.name] = (orig, i)
    pinned: Dict[str, Optional[int]] = {}
    for reg in lowered.circuit.registers:
        orig, bit_index = orig_of.get(reg.q.name, (reg.q.name, 0))
        if sym_all or orig in symbolic or reg.q.name in symbolic:
            pinned[reg.q.name] = None
        elif orig in initial_values:
            pinned[reg.q.name] = (initial_values[orig] >> bit_index) & 1
        else:
            pinned[reg.q.name] = reg.reset_value & 1
    return pinned


def check_certificate(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    certificate: Certificate,
    initial_values: Optional[Dict[str, int]] = None,
    time_limit: Optional[float] = None,
) -> CertificateCheck:
    """Independently verify that ``certificate`` proves ``prop``.

    Returns a :class:`CertificateCheck`; ``ok`` is True only when all
    three conditions (initialisation, consecution, safety) hold.  A
    failed or inconclusive SAT query names the offending clause in
    ``reason``.
    """
    lowered = _as_lowered(circuit, prop)
    design = lowered.circuit

    # -- initialisation: pure evaluation, no solver -------------------
    pinned = _pinned_initial_bits(lowered, prop, initial_values)
    for idx, clause in enumerate(certificate.clauses):
        names = set()
        satisfied = False
        for name, value in clause:
            if name not in pinned:
                return CertificateCheck(
                    False, f"clause {idx} references unknown register bit {name!r}")
            if pinned[name] == value:
                satisfied = True
                break
            if (name, 1 - value) in names:
                satisfied = True  # (b=0 ∨ b=1): tautological on a free bit
                break
            names.add((name, value))
        if not satisfied:
            return CertificateCheck(
                False, f"clause {idx} can be violated by an initial state")

    # -- fresh encoding of one transition frame -----------------------
    solver = Solver()
    true_lit = solver.new_var()
    solver.add_clause((true_lit,))
    frame = FrameEncoder(solver, true_lit)
    for reg in design.registers:
        frame.fresh(reg.q.name)
    for sig in design.inputs:
        frame.fresh(sig.name)
    frame.encode_combinational(design)
    state_lit = {reg.q.name: frame.lit(reg.q.name) for reg in design.registers}
    next_lit = {reg.q.name: frame.lit(reg.d.name) for reg in design.registers}

    def signal_lit(original_name: str) -> int:
        return frame.lit(lowered.bits[original_name][0].name)

    for name in prop.assumptions:
        solver.add_clause((signal_lit(name),))

    def lit_of(name: str, value: int, table: Dict[str, int]) -> int:
        base = table[name]
        return base if value else -base

    # Assert the invariant itself over the current state.
    for clause in certificate.clauses:
        if not solver.add_clause([lit_of(n, v, state_lit) for n, v in clause]):
            # Inv ∧ A is contradictory: the invariant excludes every
            # assumption-respecting state, so consecution and safety
            # hold vacuously — but initialisation already passed above,
            # which is impossible unless A itself is unsatisfiable.
            return CertificateCheck(
                True, "invariant and assumptions are jointly unsatisfiable",
                clauses_checked=len(certificate.clauses))

    # -- consecution: Inv ∧ A ∧ T ∧ ¬c' UNSAT for every clause c ------
    for idx, clause in enumerate(certificate.clauses):
        assumptions = [-lit_of(n, v, next_lit) for n, v in clause]
        res = solver.solve(assumptions=assumptions, time_limit=time_limit)
        if res.status is SolveStatus.SAT:
            return CertificateCheck(
                False, f"clause {idx} is not inductive relative to the invariant",
                clauses_checked=idx)
        if res.status is SolveStatus.UNKNOWN:
            return CertificateCheck(
                False, f"consecution check for clause {idx} exceeded its budget",
                clauses_checked=idx)

    # -- safety: Inv ∧ A ∧ bad UNSAT ----------------------------------
    res = solver.solve(assumptions=[signal_lit(prop.bad)], time_limit=time_limit)
    if res.status is SolveStatus.SAT:
        return CertificateCheck(
            False, "invariant does not exclude the bad states",
            clauses_checked=len(certificate.clauses))
    if res.status is SolveStatus.UNKNOWN:
        return CertificateCheck(
            False, "safety check exceeded its budget",
            clauses_checked=len(certificate.clauses))
    return CertificateCheck(True, clauses_checked=len(certificate.clauses))
