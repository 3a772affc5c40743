"""Cycle-accurate two-value simulation of circuits.

Plays the role Verilator plays in the paper: deterministic simulation of
(instrumented) designs, with waveform capture for counterexample replay
and VCD export for debugging (see ``docs/simulation.md``).
"""

from repro.sim.simulator import Simulator, SimulationError
from repro.sim.waveform import Waveform
from repro.sim.vcd import write_vcd, write_vcd_file

__all__ = [
    "Simulator", "SimulationError",
    "Waveform", "write_vcd", "write_vcd_file",
]
