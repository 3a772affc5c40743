"""Counterexample traces produced by bounded model checking.

A counterexample is stored as a *stimulus*: the initial register state
plus per-cycle input values.  The full waveform is reconstructed by
replaying the stimulus on the circuit with :class:`Simulator` —
mirroring the paper's flow, which simulates each counterexample over the
netlist to obtain the waveform for backtracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.hdl.circuit import Circuit
from repro.sim.simulator import Simulator
from repro.sim.waveform import Waveform


@dataclass
class Counterexample:
    """A concrete violating execution of length ``length`` cycles."""

    length: int
    inputs: List[Dict[str, int]]
    initial_state: Dict[str, int]
    bad_signal: str = ""

    def __post_init__(self) -> None:
        if len(self.inputs) != self.length:
            raise ValueError(
                f"counterexample has {len(self.inputs)} input frames for length {self.length}"
            )

    def replay(
        self,
        circuit: Circuit,
        record: Optional[Iterable[str]] = None,
    ) -> Waveform:
        """Simulate the stimulus on ``circuit`` and return the waveform.

        ``circuit`` may be the original design, the taint-instrumented
        design, or any variant sharing the same input/register names;
        unknown initial-state entries and extra inputs are ignored,
        missing inputs default to 0.
        """
        known_regs = {reg.q.name for reg in circuit.registers}
        init = {k: v for k, v in self.initial_state.items() if k in known_regs}
        sim = Simulator(circuit, initial_state=init)
        input_names = [sig.name for sig in circuit.inputs]
        stimulus = []
        for frame in self.inputs:
            stimulus.append({name: frame.get(name, 0) for name in input_names})
        return sim.run(stimulus, record=record)

    def with_initial_state(self, overrides: Dict[str, int]) -> "Counterexample":
        merged = dict(self.initial_state)
        merged.update(overrides)
        return Counterexample(self.length, [dict(f) for f in self.inputs], merged, self.bad_signal)


def replay_batch(
    circuit: Circuit,
    counterexamples: List["Counterexample"],
    record: Optional[Iterable[str]] = None,
) -> List[Waveform]:
    """Replay N counterexamples on one circuit in a single pass.

    Each counterexample becomes one lane of a
    :class:`~repro.sim.batch.BatchSimulator`; shorter traces are padded
    with zero frames up to the longest and each returned waveform is
    truncated back to its own length, so every entry is bit-identical to
    ``cex.replay(circuit, record)``.  This is how the CEGAR machinery
    certifies many candidate witnesses at once (refinement pruning).
    """
    from repro.sim.batch import BatchSimulator

    if not counterexamples:
        return []
    known_regs = {reg.q.name for reg in circuit.registers}
    input_names = [sig.name for sig in circuit.inputs]
    max_length = max(cex.length for cex in counterexamples)
    zero_frame = {name: 0 for name in input_names}
    inits = []
    stimuli = []
    for cex in counterexamples:
        inits.append({k: v for k, v in cex.initial_state.items() if k in known_regs})
        frames = [{name: frame.get(name, 0) for name in input_names}
                  for frame in cex.inputs]
        frames.extend([zero_frame] * (max_length - len(frames)))
        stimuli.append(frames)
    sim = BatchSimulator(circuit, lanes=len(counterexamples), initial_states=inits)
    names = list(record) if record is not None else None
    batch = sim.run(stimuli, record=names)
    return [batch.lane(lane, length=cex.length)
            for lane, cex in enumerate(counterexamples)]
