"""The SAT-free static verification engine.

:func:`static_verify` answers a :class:`SafetyProperty` on a (lowered)
netlist with ternary abstract interpretation only — no solver:

- **verified** — ``bad`` is constant 0 at the ternary fixpoint (no
  reachable state under any input can raise it), or the reachable
  ternary state space was exhausted with ``bad`` pinned to 0, or the
  assumptions become unsatisfiable before ``bad`` can ever leave 0.
  Sound: the abstraction over-approximates every concrete trace, and
  ignoring assumptions only enlarges the set of behaviours proved
  clean.
- **violation** — frame-wise ternary simulation finds a depth where
  ``bad`` is *definitely* 1 while every assumption was definitely 1 on
  the way there: every input sequence violates the property, so a
  zero-input counterexample is synthesized and replay-confirmed before
  being reported.
- **unknown** — neither; the verdict still carries ``bound`` (deepest
  cycle proven clean for all inputs, which BMC may skip) and a ranked
  *suspect* list: signals the fixpoint could not pin down that sit on
  a path to ``bad``, nearest first — the hint set consumed by the
  CEGAR backtrace.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.bmc import _as_lowered
from repro.formal.counterexample import Counterexample
from repro.formal.properties import SafetyProperty
from repro.obs import NULL_TRACER
from repro.analyze.constprop import (
    TOP,
    constant_fixpoint,
    initial_state,
    ternary_frames,
)

VERIFIED = "verified"
VIOLATION = "violation"
UNKNOWN = "unknown"

#: Default frame budget of the bounded ternary pass.
DEFAULT_MAX_FRAMES = 64


@dataclass
class StaticVerdict:
    """Outcome of one :func:`static_verify` call."""

    status: str                   # verified | violation | unknown
    reason: str = ""
    #: Deepest cycle proven violation-free for *all* inputs (-1: none).
    bound: int = -1
    #: Frames the bounded ternary pass explored.
    frames: int = 0
    counterexample: Optional[Counterexample] = None
    #: Ranked original-name suspects (nearest to ``bad`` first).
    suspects: Tuple[str, ...] = field(default_factory=tuple)
    elapsed: float = 0.0

    @property
    def definitive(self) -> bool:
        return self.status in (VERIFIED, VIOLATION)

    @property
    def proved(self) -> bool:
        return self.status == VERIFIED


def _bit_name(lowered: LoweredCircuit, name: str) -> str:
    bit_sigs = lowered.bits.get(name)
    return bit_sigs[0].name if bit_sigs else name


def _suspects(
    lowered: LoweredCircuit,
    facts,
    bad_bit: str,
    limit: int = 24,
) -> Tuple[str, ...]:
    """Unpinned signals in ``bad``'s cone, nearest first, as original
    (word-level) names.

    The walk passes through every gate, but only bits that
    ``lowered.bits`` maps back to a word-level signal are ranked: the
    SAT pipeline renames internal gates (``core._g2``), and such a name
    is no signal of the source circuit.
    """
    fanins = {cell[1]: cell[2] for cell in lowered.topo_cells()}
    d_of = {q: d for q, d, _reset in lowered.register_entries()}
    orig_of: Dict[str, str] = {}
    for orig, sigs in lowered.bits.items():
        for sig in sigs:
            orig_of.setdefault(sig.name, orig)
    distance: Dict[str, int] = {bad_bit: 0}
    queue = deque([bad_bit])
    while queue:
        name = queue.popleft()
        nexts: List[str] = []
        nexts.extend(fanins.get(name, ()))
        if name in d_of:
            nexts.append(d_of[name])
        for dep in nexts:
            if dep not in distance:
                distance[dep] = distance[name] + 1
                queue.append(dep)
    ranked: List[Tuple[int, str]] = []
    seen = set()
    for name in sorted(distance, key=lambda n: (distance[n], n)):
        if facts.value_of(name) != TOP:
            continue
        orig = orig_of.get(name)
        if orig is None or orig in seen or orig.startswith("__compass"):
            continue
        seen.add(orig)
        ranked.append((distance[name], orig))
        if len(ranked) >= limit:
            break
    return tuple(orig for _, orig in ranked)


def _confirm(
    lowered: LoweredCircuit, prop: SafetyProperty, cex: Counterexample
) -> bool:
    """Replay the synthesized counterexample on the gate-level netlist."""
    try:
        waveform = cex.replay(lowered.circuit)
    except Exception:
        return False
    last = cex.length - 1
    bad_bit = _bit_name(lowered, prop.bad)
    if waveform.value(bad_bit, last) != 1:
        return False
    for name in prop.assumptions:
        bit = _bit_name(lowered, name)
        if any(waveform.value(bit, t) != 1 for t in range(last + 1)):
            return False
    for name in prop.init_assumptions:
        if waveform.value(_bit_name(lowered, name), 0) != 1:
            return False
    return True


def static_verify(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    max_frames: int = DEFAULT_MAX_FRAMES,
    tracer=None,
) -> StaticVerdict:
    """Answer ``prop`` by abstract interpretation alone (no SAT)."""
    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    lowered = _as_lowered(circuit, prop)
    symbolic = frozenset(prop.symbolic_registers)
    symbolic_all = bool(getattr(prop, "symbolic_all_registers", False))
    bad_bit = _bit_name(lowered, prop.bad)
    facts = constant_fixpoint(lowered, symbolic, symbolic_all)
    if bad_bit not in facts.program.slot_of_name:
        raise ValueError(
            f"property signal {prop.bad!r} is not in the lowered netlist"
        )
    tracer.count("analyze.fixpoints")

    if facts.value_of(bad_bit) == 0:
        return StaticVerdict(
            VERIFIED,
            reason="bad is constant 0 at the ternary fixpoint",
            elapsed=time.monotonic() - started,
        )

    # Bounded frame-wise pass: more precise than the fixpoint (no
    # state join), so it can still close a proof, find a definite
    # violation, or at least extend the proven-clean bound.
    assumption_bits = [_bit_name(lowered, n) for n in prop.assumptions]
    init_bits = [_bit_name(lowered, n) for n in prop.init_assumptions]
    program = facts.program
    bad_slot = program.slot_of_name[bad_bit]

    trace = ternary_frames(lowered, max_frames, symbolic, symbolic_all,
                           stop=lambda vals: vals[bad_slot] != 0)
    bound = -1
    definite_env = True      # assumptions definitely 1 so far
    vacuous_after: Optional[int] = None  # assumptions definitely 0
    verdict: Optional[StaticVerdict] = None
    for k, vals in enumerate(trace.frames):
        a_vals = [vals[program.slot_of_name[b]] for b in assumption_bits
                  if b in program.slot_of_name]
        if k == 0:
            a_vals += [vals[program.slot_of_name[b]] for b in init_bits
                       if b in program.slot_of_name]
        bad_val = vals[bad_slot]
        if bad_val == 0:
            bound = k
        elif (bad_val == 1 and definite_env and all(v == 1 for v in a_vals)):
            cex = Counterexample(
                length=k + 1,
                inputs=[{} for _ in range(k + 1)],
                initial_state={},
                bad_signal=prop.bad,
            )
            if _confirm(lowered, prop, cex):
                tracer.count("analyze.violations")
                verdict = StaticVerdict(
                    VIOLATION,
                    reason=f"bad is definitely 1 at frame {k} under "
                           "definitely-satisfied assumptions",
                    bound=bound, frames=k + 1, counterexample=cex,
                )
            break
        else:
            break  # bad may be 1 here; nothing definite either way
        if any(v == 0 for v in a_vals):
            vacuous_after = k
            break
        if any(v != 1 for v in a_vals):
            definite_env = False

    frames_explored = len(trace.frames)
    if verdict is None and vacuous_after is not None:
        verdict = StaticVerdict(
            VERIFIED,
            reason=f"assumptions are definitely violated at frame "
                   f"{vacuous_after}; no longer trace can witness bad",
            bound=bound, frames=frames_explored,
        )
    if verdict is None and trace.closed and bound == frames_explored - 1:
        verdict = StaticVerdict(
            VERIFIED,
            reason="ternary state space exhausted with bad pinned to 0",
            bound=bound, frames=frames_explored,
        )
    if verdict is None:
        verdict = StaticVerdict(
            UNKNOWN,
            reason="bad is not separable by ternary analysis",
            bound=bound, frames=frames_explored,
            suspects=_suspects(lowered, facts, bad_bit),
        )
    if verdict.proved:
        tracer.count("analyze.proofs")
    verdict.elapsed = time.monotonic() - started
    return verdict
