"""Waveform capture: per-signal value traces over cycles.

A :class:`Waveform` is the artifact the CEGAR backtracing algorithm
consumes (Algorithm 1 takes "a waveform generated by simulating the
counterexample on the circuit").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class Waveform:
    """Values of signals at each simulated cycle.

    Cycle ``t`` records the *pre-clock-edge* combinational values of
    cycle ``t`` (register signals show their current values for that
    cycle, i.e. what they held going into the cycle).
    """

    def __init__(self, signal_names: Iterable[str]) -> None:
        self._trace: Dict[str, List[int]] = {name: [] for name in signal_names}
        self._length = 0

    @classmethod
    def from_frames(
        cls,
        signal_names: Sequence[str],
        slots: Sequence[int],
        frames: Sequence[Sequence[int]],
    ) -> "Waveform":
        """A waveform of ``len(frames)`` cycles, built in one pass.

        ``frames[t]`` holds every value of cycle ``t`` by slot, and
        ``signal_names[i]`` is read from slot ``slots[i]``.  With no
        frames there are no slots to read, and the signals get empty
        traces.
        """
        if not frames:
            return cls(signal_names)
        waveform = cls(())
        columns = list(zip(*frames))
        waveform._trace = {name: list(columns[slot])
                           for name, slot in zip(signal_names, slots)}
        waveform._length = len(frames)
        return waveform

    @property
    def length(self) -> int:
        """Number of recorded cycles."""
        return self._length

    @property
    def signal_names(self) -> List[str]:
        return list(self._trace)

    def record(self, values: Mapping[str, int]) -> None:
        """Append one cycle of values (must cover all tracked signals).

        The frame is validated before any trace is touched, so a bad
        frame raises without leaving ragged traces behind.
        """
        missing = [name for name in self._trace if name not in values]
        if missing:
            shown = ", ".join(repr(n) for n in sorted(missing)[:5])
            if len(missing) > 5:
                shown += f", ... ({len(missing) - 5} more)"
            raise KeyError(f"waveform frame missing signal(s): {shown}")
        for name, trace in self._trace.items():
            trace.append(values[name])
        self._length += 1

    def value(self, signal_name: str, cycle: int) -> int:
        """Value of ``signal_name`` at ``cycle`` (0-based)."""
        trace = self._trace.get(signal_name)
        if trace is None:
            raise KeyError(f"waveform does not track signal {signal_name!r}")
        if not (0 <= cycle < self._length):
            raise IndexError(f"cycle {cycle} outside recorded range [0, {self._length})")
        return trace[cycle]

    def trace(self, signal_name: str) -> List[int]:
        return list(self._trace[signal_name])

    def has_signal(self, signal_name: str) -> bool:
        return signal_name in self._trace

    def last(self, signal_name: str) -> int:
        return self.value(signal_name, self._length - 1)

    def cycles_where(self, signal_name: str, predicate) -> List[int]:
        """Cycles at which ``predicate(value)`` holds."""
        return [t for t, v in enumerate(self._trace[signal_name]) if predicate(v)]

    def differs_from(self, other: "Waveform", signal_name: str, cycle: int) -> bool:
        """True when the two waveforms disagree on a (signal, cycle) point."""
        return self.value(signal_name, cycle) != other.value(signal_name, cycle)


class BatchWaveform:
    """Per-signal bit-plane traces for K concurrent lanes.

    Produced by :meth:`repro.sim.batch.BatchSimulator.run`.  Each cycle
    records, per signal, the LSB-first tuple of bit planes (one integer
    per design bit, one lane per integer bit).  ``lane(k)`` slices out a
    plain :class:`Waveform` — bit-identical to a scalar run of that
    lane — which plugs into everything downstream (VCD export, CEGAR
    backtracing, coverage).
    """

    def __init__(
        self,
        signal_names: Iterable[str],
        lanes: int,
        widths: Mapping[str, int],
    ) -> None:
        self._trace: Dict[str, List[Tuple[int, ...]]] = {
            name: [] for name in signal_names
        }
        self._widths = dict(widths)
        self.lanes = lanes
        self._length = 0

    @property
    def length(self) -> int:
        return self._length

    @property
    def signal_names(self) -> List[str]:
        return list(self._trace)

    def record(self, planes_by_name: Mapping[str, Sequence[int]]) -> None:
        """Append one cycle of bit planes (must cover all tracked signals)."""
        missing = [name for name in self._trace if name not in planes_by_name]
        if missing:
            shown = ", ".join(repr(n) for n in sorted(missing)[:5])
            if len(missing) > 5:
                shown += f", ... ({len(missing) - 5} more)"
            raise KeyError(f"waveform frame missing signal(s): {shown}")
        for name, trace in self._trace.items():
            trace.append(tuple(planes_by_name[name]))
        self._length += 1

    def has_signal(self, signal_name: str) -> bool:
        return signal_name in self._trace

    def _check_lane(self, lane: int) -> None:
        if not (0 <= lane < self.lanes):
            raise IndexError(f"lane {lane} outside [0, {self.lanes})")

    def planes(self, signal_name: str, cycle: int) -> Tuple[int, ...]:
        trace = self._trace.get(signal_name)
        if trace is None:
            raise KeyError(f"waveform does not track signal {signal_name!r}")
        if not (0 <= cycle < self._length):
            raise IndexError(f"cycle {cycle} outside recorded range [0, {self._length})")
        return trace[cycle]

    def value(self, signal_name: str, cycle: int, lane: int) -> int:
        """Value of one (signal, cycle, lane) point."""
        self._check_lane(lane)
        value = 0
        for b, plane in enumerate(self.planes(signal_name, cycle)):
            value |= ((plane >> lane) & 1) << b
        return value

    @staticmethod
    def _unpack_trace(planes_trace: Sequence[Tuple[int, ...]], lane: int) -> List[int]:
        out = []
        for planes in planes_trace:
            if len(planes) == 1:  # 1-bit signals dominate gate-level traces
                out.append((planes[0] >> lane) & 1)
                continue
            value = 0
            for b, plane in enumerate(planes):
                value |= ((plane >> lane) & 1) << b
            out.append(value)
        return out

    def lane_trace(self, signal_name: str, lane: int) -> List[int]:
        self._check_lane(lane)
        trace = self._trace.get(signal_name)
        if trace is None:
            raise KeyError(f"waveform does not track signal {signal_name!r}")
        return self._unpack_trace(trace, lane)

    def lane(self, lane: int, length: Optional[int] = None) -> Waveform:
        """Slice one lane out as a plain scalar :class:`Waveform`.

        ``length`` truncates the slice (for batches where shorter runs
        were padded up to a common length, e.g. counterexample replay).
        """
        self._check_lane(lane)
        if length is None:
            length = self._length
        if not (0 <= length <= self._length):
            raise IndexError(f"length {length} outside [0, {self._length}]")
        waveform = Waveform(self._trace)
        for name, planes_trace in self._trace.items():
            waveform._trace[name] = self._unpack_trace(
                planes_trace[:length], lane)
        waveform._length = length
        return waveform
