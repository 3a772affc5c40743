"""Toggle coverage collection for simulation-based testing.

When taint analysis is used for *testing* (the paper's simulation
scenario), coverage tells you how much of the design the stimulus
exercised — a taint bit that never toggles is a vacuous check.  This
collector tracks, per signal, how many bits ever held 0 and ever held
1 across a run, and summarizes per module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.sim.simulator import Simulator


@dataclass
class SignalCoverage:
    """Bit-level toggle record for one signal."""

    name: str
    width: int
    seen_zero: int = 0   # bit mask of positions observed at 0
    seen_one: int = 0    # bit mask of positions observed at 1

    def observe(self, value: int) -> None:
        self.seen_one |= value
        self.seen_zero |= ~value & ((1 << self.width) - 1)

    @property
    def covered_bits(self) -> int:
        """Bits that were observed at both 0 and 1."""
        return bin(self.seen_zero & self.seen_one).count("1")

    @property
    def coverage(self) -> float:
        return self.covered_bits / self.width


@dataclass
class CoverageReport:
    signals: Dict[str, SignalCoverage]

    @property
    def total_bits(self) -> int:
        return sum(s.width for s in self.signals.values())

    @property
    def covered_bits(self) -> int:
        return sum(s.covered_bits for s in self.signals.values())

    @property
    def coverage(self) -> float:
        total = self.total_bits
        return self.covered_bits / total if total else 1.0

    def per_module(self) -> Dict[str, float]:
        by_module: Dict[str, List[SignalCoverage]] = {}
        for cov in self.signals.values():
            module = cov.name.rsplit(".", 1)[0] if "." in cov.name else "(top)"
            by_module.setdefault(module, []).append(cov)
        return {
            module: sum(c.covered_bits for c in covs) / sum(c.width for c in covs)
            for module, covs in sorted(by_module.items())
        }

    def uncovered(self, limit: int = 20) -> List[str]:
        """Signals with completely stuck bits (never toggled)."""
        stuck = [c.name for c in self.signals.values() if c.coverage < 1.0]
        return sorted(stuck)[:limit]

    def summary(self) -> str:
        return (
            f"toggle coverage: {self.covered_bits}/{self.total_bits} bits "
            f"({self.coverage * 100:.1f}%)"
        )


class CoverageCollector:
    """Wraps a simulator and records toggle coverage as it steps."""

    def __init__(self, simulator: Simulator, signals: Optional[Iterable[str]] = None) -> None:
        self.simulator = simulator
        circuit = simulator.circuit
        names = list(signals) if signals is not None else [
            reg.q.name for reg in circuit.registers
        ]
        self._coverage = {
            name: SignalCoverage(name, circuit.signal(name).width) for name in names
        }

    def step(self, inputs: Optional[Mapping[str, int]] = None):
        outputs = self.simulator.step(inputs)
        for cov in self._coverage.values():
            cov.observe(self.simulator.peek(cov.name))
        return outputs

    def report(self) -> CoverageReport:
        return CoverageReport(dict(self._coverage))
