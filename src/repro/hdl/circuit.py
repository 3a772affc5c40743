"""Flattened circuit container: signals, cells, registers.

A :class:`Circuit` is the unit everything downstream consumes: the
simulator evaluates its cells in topological order, the taint
instrumentation pass rewrites it, the gate-lowering pass bit-blasts it,
and the CNF encoder unrolls it over time frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hdl.cells import Cell, CellOp, validate_cell
from repro.hdl.signals import Signal, SignalKind


class CircuitError(ValueError):
    """Raised for structural problems in a circuit."""


class CombinationalLoopError(CircuitError):
    """Raised when the cells of a circuit contain a combinational cycle."""


def topo_order(circuit_name: str, outs: Sequence[str],
               ins: Iterable[Sequence[str]]) -> List[int]:
    """Kahn's algorithm over cells given by output name and input names.

    Returns cell indices in dependency order; a cell's inputs that no
    cell drives (inputs, registers) are sources.  The ready set is a
    LIFO stack seeded in index order, and a popped cell releases its
    consumers in index order, so the order is a function of the cell
    list alone.  Raises :class:`CombinationalLoopError` when cells sit
    on a combinational cycle.

    Consumers are kept in flat integer lists (one ``start`` offset per
    driven name into ``targets``) rather than a list per name: on a
    70k-gate lowering the per-name lists alone set off several full
    garbage collections.
    """
    slot: Dict[str, int] = {}
    slot_of = [slot.setdefault(name, len(slot)) for name in outs]
    driven = slot.get
    indegree = [0] * len(outs)
    edge_slot: List[int] = []
    edge_cell: List[int] = []
    for idx, names in enumerate(ins):
        for name in names:
            s = driven(name)
            if s is not None:
                edge_slot.append(s)
                edge_cell.append(idx)
                indegree[idx] += 1
    start = [0] * (len(slot) + 1)
    for s in edge_slot:
        start[s + 1] += 1
    for s in range(len(slot)):
        start[s + 1] += start[s]
    fill = start[:]
    targets = [0] * len(edge_cell)
    for s, idx in zip(edge_slot, edge_cell):
        targets[fill[s]] = idx
        fill[s] += 1
    ready = [i for i, d in enumerate(indegree) if d == 0]
    order: List[int] = []
    while ready:
        idx = ready.pop()
        order.append(idx)
        s = slot_of[idx]
        for consumer in targets[start[s]:start[s + 1]]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(outs):
        stuck = [name for name, d in zip(outs, indegree) if d > 0]
        raise CombinationalLoopError(
            f"combinational loop in circuit {circuit_name!r} involving: {stuck[:10]}"
        )
    return order


@dataclass(frozen=True)
class Register:
    """A clocked state element.

    ``q`` is the current-value signal (kind REG, no producing cell) and
    ``d`` the combinationally-computed next value.  Enables and holds are
    folded into ``d`` by the builder; the register itself updates every
    cycle.
    """

    q: Signal
    d: Signal
    reset_value: int = 0

    def __post_init__(self) -> None:
        if self.q.width != self.d.width:
            raise CircuitError(f"register {self.q.name}: d width {self.d.width} != q width {self.q.width}")
        if not (0 <= self.reset_value <= self.q.mask):
            raise CircuitError(f"register {self.q.name}: reset value out of range")


class Circuit:
    """A flattened netlist.

    Invariants (enforced by :meth:`validate`):

    - every signal has a unique name;
    - every WIRE/OUTPUT signal is produced by exactly one cell;
    - INPUT and REG signals are produced by no cell;
    - cell inputs reference signals in the circuit;
    - the cell graph is acyclic (registers break cycles).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.signals: Dict[str, Signal] = {}
        self.inputs: List[Signal] = []
        self.outputs: List[Signal] = []
        self.cells: List[Cell] = []
        self.registers: List[Register] = []
        self._producer: Dict[str, Cell] = {}
        self._register_of: Dict[str, Register] = {}
        self._topo_cache: Optional[List[Cell]] = None
        #: Memo of :func:`repro.formal.cache.circuit_fingerprint`.
        self._content_fingerprint: Optional[str] = None
        #: True once :meth:`validate` passed on the current structure.
        self._validated = False
        #: Memo of :func:`repro.sim.batch.batch_program_for`.
        self._batch_program = None
        #: Length of the prefix of ``cells`` that went through
        #: :meth:`add_cell`'s checks; a cell put into ``cells`` any
        #: other way leaves it short, and :meth:`validate` lints in full.
        self._checked = 0

    def _changed(self) -> None:
        """Drop the memos that describe the structure before a mutation."""
        self._topo_cache = None
        self._content_fingerprint = None
        self._validated = False
        self._batch_program = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_signal(self, signal: Signal) -> Signal:
        existing = self.signals.get(signal.name)
        if existing is not None:
            if existing != signal:
                raise CircuitError(f"conflicting redefinition of signal {signal.name!r}")
            return existing
        self.signals[signal.name] = signal
        if signal.kind is SignalKind.INPUT:
            self.inputs.append(signal)
        elif signal.kind is SignalKind.OUTPUT:
            self.outputs.append(signal)
        self._changed()
        return signal

    def add_cell(self, cell: Cell) -> Cell:
        validate_cell(cell)
        if cell.out.name in self._producer:
            raise CircuitError(f"signal {cell.out.name!r} already driven")
        if cell.out.kind in (SignalKind.INPUT, SignalKind.REG):
            raise CircuitError(f"cannot drive {cell.out.kind.value} signal {cell.out.name!r} with a cell")
        self.add_signal(cell.out)
        for sig in cell.ins:
            if sig.name not in self.signals:
                raise CircuitError(f"cell {cell.out.name!r} references unknown signal {sig.name!r}")
        if self._checked == len(self.cells):
            self._checked += 1
        self.cells.append(cell)
        self._producer[cell.out.name] = cell
        self._changed()
        return cell

    def add_register(self, register: Register) -> Register:
        if register.q.kind is not SignalKind.REG:
            raise CircuitError(f"register q signal {register.q.name!r} must have kind REG")
        if register.q.name in self._register_of:
            raise CircuitError(f"register {register.q.name!r} already defined")
        self.add_signal(register.q)
        self.registers.append(register)
        self._register_of[register.q.name] = register
        self._changed()
        return register

    @classmethod
    def _assemble(cls, name: str, signals: Dict[str, Signal],
                  registers: List[Register], cells: List[Cell],
                  order: Optional[Sequence[int]] = None) -> "Circuit":
        """Trusted bulk construction from a finished signal table.

        Nothing is checked per element; :meth:`validate` runs every
        check ``add_signal``/``add_cell``/``add_register`` would have.
        ``order`` is a topological order of ``cells`` by index from a
        check that already ran every :meth:`validate` invariant on this
        structure (:meth:`repro.hdl.netlist.Netlist.checked_order`):
        the circuit then starts validated, with that order cached.
        """
        circuit = cls(name)
        circuit.signals = signals
        circuit.inputs = [s for s in signals.values() if s.kind is SignalKind.INPUT]
        circuit.outputs = [s for s in signals.values() if s.kind is SignalKind.OUTPUT]
        circuit.registers = registers
        circuit.cells = cells
        circuit._register_of = {reg.q.name: reg for reg in registers}
        circuit._producer = {cell.out.name: cell for cell in cells}
        if order is not None:
            circuit._topo_cache = [cells[i] for i in order]
            circuit._validated = True
        return circuit

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise CircuitError(f"no signal named {name!r} in circuit {self.name!r}") from None

    def producer(self, signal: Signal) -> Optional[Cell]:
        """The cell driving ``signal``, or ``None`` for inputs/regs/consts."""
        return self._producer.get(signal.name)

    def register_of(self, signal: Signal) -> Optional[Register]:
        return self._register_of.get(signal.name)

    def is_state(self, signal: Signal) -> bool:
        return signal.name in self._register_of

    def combinational_fanins(self, signal: Signal) -> Tuple[Signal, ...]:
        """Fan-in signals through the producing cell (empty for sources)."""
        cell = self._producer.get(signal.name)
        return cell.ins if cell is not None else ()

    def fanouts(self, signal: Signal) -> List[Cell]:
        """All cells consuming ``signal`` (linear scan; cached callers should
        build their own index via :meth:`fanout_index`)."""
        return [c for c in self.cells if any(s.name == signal.name for s in c.ins)]

    def fanout_index(self) -> Dict[str, List[Cell]]:
        index: Dict[str, List[Cell]] = {name: [] for name in self.signals}
        for cell in self.cells:
            for sig in cell.ins:
                index[sig.name].append(cell)
        return index

    def module_paths(self) -> Set[str]:
        """All module paths appearing on signals or cells (excluding root)."""
        paths: Set[str] = set()
        for sig in self.signals.values():
            if sig.module:
                paths.add(sig.module)
        for cell in self.cells:
            if cell.module:
                paths.add(cell.module)
        return paths

    def registers_in_module(self, module_path: str) -> List[Register]:
        """Registers whose module path equals or is nested under ``module_path``."""
        prefix = module_path + "."
        return [
            r for r in self.registers
            if r.q.module == module_path or r.q.module.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # topological ordering & validation
    # ------------------------------------------------------------------
    def topo_cells(self) -> List[Cell]:
        """Cells in dependency order (inputs/registers/consts are sources).

        Raises :class:`CombinationalLoopError` on a combinational cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        cells = self.cells
        order = topo_order(self.name, [cell.out.name for cell in cells],
                           ([sig.name for sig in cell.ins] for cell in cells))
        self._topo_cache = [cells[i] for i in order]
        return self._topo_cache

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`CircuitError`.

        When every cell went through :meth:`add_cell`, which already
        checked its widths, its driver and its input names, only what
        ``add_cell`` cannot see is checked here: undriven WIRE/OUTPUT
        signals, REG signals without a register, register ``d`` names,
        and combinational loops (from the Kahn order
        :meth:`topo_cells` computes anyway).  A circuit changed any
        other way (``_assemble``, a direct ``cells.append``) gets the
        full lint.

        Either way a violation is reported by the invariant subset of
        the lint rules (:func:`repro.lint.structural.invariant_diagnostics`),
        which collects *every* violation before raising — the exception
        message lists them all.  When the only violations are
        combinational cycles, :class:`CombinationalLoopError` is raised
        for compatibility with loop-specific handlers.

        A structure that passed is not checked again until the next
        ``add_*`` call (or ``_changed()``) alters it.
        """
        if self._validated:
            return
        if self._checked == len(self.cells) and self._wiring_ok():
            self._validated = True
            return
        from repro.lint.structural import invariant_diagnostics

        violations = invariant_diagnostics(self)
        if not violations:
            self.topo_cells()  # populate the cache on the happy path
            self._validated = True
            return
        messages = []
        for diag in violations:
            prefix = f"[{diag.rule}] " if len(violations) > 1 else ""
            location = f"{diag.path}: " if diag.path else ""
            messages.append(f"{prefix}{location}{diag.message}")
        summary = (
            f"circuit {self.name!r} has {len(violations)} invariant "
            f"violation(s):\n  " + "\n  ".join(messages)
            if len(violations) > 1
            else f"circuit {self.name!r}: {messages[0]}"
        )
        if all(diag.rule == "comb-loop" for diag in violations):
            raise CombinationalLoopError(summary)
        raise CircuitError(summary)

    def _wiring_ok(self) -> bool:
        """The invariants :meth:`add_cell` cannot check, as one verdict."""
        producer = self._producer
        registered = {reg.q.name for reg in self.registers}
        for name, sig in self.signals.items():
            kind = sig.kind
            if kind is SignalKind.WIRE or kind is SignalKind.OUTPUT:
                if name not in producer:
                    return False
            elif kind is SignalKind.REG and name not in registered:
                return False
        signals = self.signals
        if any(reg.d.name not in signals for reg in self.registers):
            return False
        try:
            self.topo_cells()
        except CombinationalLoopError:
            return False
        return True

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Shallow structural copy (signals/cells are immutable, safe to share).

        Every element already passed its ``add_*`` check here, so the
        copy goes through :meth:`_assemble` without re-checking them,
        and keeps the count of cells ``add_cell`` checked.
        """
        copy = Circuit._assemble(name or self.name, dict(self.signals),
                                 list(self.registers), list(self.cells))
        copy._checked = self._checked
        return copy

    def state_bits(self) -> int:
        return sum(r.q.width for r in self.registers)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}: {len(self.inputs)} in, {len(self.outputs)} out, "
            f"{len(self.cells)} cells, {len(self.registers)} regs)"
        )
