"""Counterexample traces produced by bounded model checking.

A counterexample is stored as a *stimulus*: the initial register state
plus per-cycle input values.  The full waveform is reconstructed by
replaying the stimulus on the circuit with :class:`Simulator` —
mirroring the paper's flow, which simulates each counterexample over the
netlist to obtain the waveform for backtracing.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return self.replay_on(Simulator(circuit), record)

    def replay_on(
        self,
        sim: Simulator,
        record: Optional[Iterable[str]] = None,
    ) -> Waveform:
        """:meth:`replay` on an existing simulator, which is reset first.

        Replaying many counterexamples on one circuit this way builds
        its simulator once.
        """
        sim.reset(self.initial_state)
        input_names = [sig.name for sig in sim.circuit.inputs]
        stimulus = [{name: frame.get(name, 0) for name in input_names}
                    for frame in self.inputs]
        return sim.run(stimulus, record=record)

    def with_initial_state(self, overrides: Dict[str, int]) -> "Counterexample":
        merged = dict(self.initial_state)
        merged.update(overrides)
        return Counterexample(self.length, [dict(f) for f in self.inputs], merged, self.bad_signal)

