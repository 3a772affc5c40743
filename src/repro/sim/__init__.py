"""Cycle-accurate two-value simulation of circuits.

Plays the role Verilator plays in the paper: deterministic simulation of
(instrumented) designs, with waveform capture for counterexample replay
and VCD export for debugging.  :class:`BatchSimulator` runs K
testbenches bit-parallel in one pass (see ``docs/simulation.md``).
"""

from repro.sim.simulator import Simulator, SimulationError
from repro.sim.batch import BatchSimulator, BatchProgram, batch_program_for
from repro.sim.waveform import Waveform, BatchWaveform
from repro.sim.vcd import write_vcd, write_vcd_file

__all__ = [
    "Simulator", "SimulationError",
    "BatchSimulator", "BatchProgram", "batch_program_for",
    "Waveform", "BatchWaveform", "write_vcd", "write_vcd_file",
]
