"""Helper for appending taint logic cells to an existing circuit.

The instrumentation pass and the propagation policies build taint logic
directly as IR cells; :class:`Emitter` provides fresh naming and the
usual operator helpers over raw :class:`~repro.hdl.signals.Signal`
objects.  Taint cells inherit the module path of the original cell they
instrument so per-module statistics (Table 4) remain meaningful.

Naming.  An Emitter names a cell ``{module}._{tag}{n}_{counter}``, with
``n`` the circuit's cell count, so names stay unique across Emitters on
one circuit (the monitors add theirs with tag ``mon``).  The
instrumentation pass instead emits in *fragments*, the cells it adds for
one unit of the design (:meth:`Emitter.begin_fragment`): a fragment's
cells are named ``{module}._t{key}_{k}`` from the unit's key (a source
cell's index in ``circuit.cells``) and a counter local to the fragment,
and a constant it creates is named ``{module}._tc{width}_{value:x}``.
A fragment's names then do not depend on what was emitted before it,
which lets a re-instrumentation copy unchanged fragments verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, Register
from repro.hdl.signals import Signal, SignalKind


class Emitter:
    """Appends cells to ``circuit`` with fresh names under a module path.

    Outside a fragment a cell is named ``{module}._{tag}{n}_{counter}``
    (``n`` the circuit's cell count).  After :meth:`begin_fragment`
    cells are named ``{module}._t{key}_{k}``, ``k`` counting from 1
    within the fragment, and constants ``{module}._tc{width}_{value:x}``
    (see the module docstring).
    """

    def __init__(self, circuit: Circuit, tag: str = "tt") -> None:
        self.circuit = circuit
        self.tag = tag
        self._counter = 0
        self._const_cache: Dict[Tuple[int, int, str], Signal] = {}
        #: Key of the fragment being emitted; None outside fragments.
        self._fragment: Optional[object] = None
        #: The constants the current fragment read: ``(key, signal,
        #: created)`` for each :meth:`const` call, in call order.
        self.const_log: List[Tuple[Tuple[int, int, str], Signal, bool]] = []

    # ------------------------------------------------------------------
    def begin_fragment(self, key: object) -> None:
        """Name the following cells after fragment ``key``."""
        self._fragment = key
        self._counter = 0
        self.const_log = []

    def fresh_name(self, module: str, hint: str = "") -> str:
        self._counter += 1
        suffix = f"_{hint}" if hint else ""
        if self._fragment is not None:
            base = f"_t{self._fragment}_{self._counter}{suffix}"
        else:
            # The circuit's cell count strictly increases with every
            # added cell, so names stay unique even across multiple
            # Emitters attached to the same circuit.
            base = f"_{self.tag}{len(self.circuit.cells)}_{self._counter}{suffix}"
        return f"{module}.{base}" if module else base

    def cell(
        self,
        op: CellOp,
        width: int,
        ins: Sequence[Signal],
        module: str,
        params: Tuple[Tuple[str, int], ...] = (),
        name: Optional[str] = None,
    ) -> Signal:
        out = Signal(name or self.fresh_name(module), width, SignalKind.WIRE, module=module)
        self.circuit.add_cell(Cell(op, out, tuple(ins), params, module=module))
        return out

    def register(self, name: str, d: Signal, reset: int, module: str) -> Signal:
        q = Signal(name, d.width, SignalKind.REG, module=module)
        self.circuit.add_register(Register(q, d, reset))
        return q

    # -- constants -------------------------------------------------------
    def const(self, value: int, width: int, module: str = "") -> Signal:
        key = (value, width, module)
        cached = self._const_cache.get(key)
        if cached is not None:
            if self._fragment is not None:
                self.const_log.append((key, cached, False))
            return cached
        name = None
        if self._fragment is not None:
            base = f"_tc{width}_{value:x}"
            name = f"{module}.{base}" if module else base
        sig = self.cell(CellOp.CONST, width, (), module,
                        params=(("value", value),), name=name)
        self._const_cache[key] = sig
        if self._fragment is not None:
            self.const_log.append((key, sig, True))
        return sig

    def adopt_consts(self, log: Sequence[Tuple[Tuple[int, int, str], Signal, bool]]) -> bool:
        """Take over the constants of a fragment copied from elsewhere.

        ``log`` is the fragment's :attr:`const_log` when it was emitted.
        The copy is what emitting it here would give only if every
        constant it created is still new here and every constant it
        read from the cache is cached here; returns False (and changes
        nothing) otherwise.
        """
        cache = self._const_cache
        made = set()
        for key, _sig, created in log:
            if created:
                if key in cache:
                    return False
                made.add(key)
            elif key not in cache and key not in made:
                return False
        for key, sig, created in log:
            if created:
                cache[key] = sig
        return True

    def zeros(self, width: int, module: str = "") -> Signal:
        return self.const(0, width, module)

    def ones(self, width: int, module: str = "") -> Signal:
        return self.const((1 << width) - 1, width, module)

    # -- bitwise / arithmetic helpers -------------------------------------
    def not_(self, a: Signal, module: str) -> Signal:
        return self.cell(CellOp.NOT, a.width, (a,), module)

    def and_(self, *ins: Signal, module: str) -> Signal:
        if len(ins) == 1:
            return ins[0]
        return self.cell(CellOp.AND, ins[0].width, ins, module)

    def or_(self, *ins: Signal, module: str) -> Signal:
        if len(ins) == 1:
            return ins[0]
        return self.cell(CellOp.OR, ins[0].width, ins, module)

    def xor(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.XOR, a.width, (a, b), module)

    def mux(self, sel: Signal, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.MUX, a.width, (sel, a, b), module)

    def add(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.ADD, a.width, (a, b), module)

    def sub(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.SUB, a.width, (a, b), module)

    def eq(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.EQ, 1, (a, b), module)

    def neq(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.NEQ, 1, (a, b), module)

    def ult(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.ULT, 1, (a, b), module)

    def ule(self, a: Signal, b: Signal, module: str) -> Signal:
        return self.cell(CellOp.ULE, 1, (a, b), module)

    def shl(self, a: Signal, sh: Signal, module: str) -> Signal:
        return self.cell(CellOp.SHL, a.width, (a, sh), module)

    def shr(self, a: Signal, sh: Signal, module: str) -> Signal:
        return self.cell(CellOp.SHR, a.width, (a, sh), module)

    def shl_const(self, a: Signal, amount: int, module: str) -> Signal:
        shw = max(1, amount.bit_length())
        return self.shl(a, self.const(amount, shw, module), module)

    def concat(self, parts: Sequence[Signal], module: str) -> Signal:
        if len(parts) == 1:
            return parts[0]
        return self.cell(CellOp.CONCAT, sum(p.width for p in parts), parts, module)

    def slice_(self, a: Signal, lo: int, hi: int, module: str) -> Signal:
        return self.cell(CellOp.SLICE, hi - lo + 1, (a,), module, params=(("lo", lo), ("hi", hi)))

    def sext(self, a: Signal, width: int, module: str) -> Signal:
        if width == a.width:
            return a
        return self.cell(CellOp.SEXT, width, (a,), module)

    def zext(self, a: Signal, width: int, module: str) -> Signal:
        if width == a.width:
            return a
        return self.cell(CellOp.ZEXT, width, (a,), module)

    def redor(self, a: Signal, module: str) -> Signal:
        if a.width == 1:
            return a
        return self.cell(CellOp.REDOR, 1, (a,), module)

    def redand(self, a: Signal, module: str) -> Signal:
        if a.width == 1:
            return a
        return self.cell(CellOp.REDAND, 1, (a,), module)

    def buf(self, a: Signal, module: str, name: Optional[str] = None) -> Signal:
        return self.cell(CellOp.BUF, a.width, (a,), module, name=name)

    # -- taint-specific helpers --------------------------------------------
    def adapt(self, taint: Signal, width: int, module: str) -> Signal:
        """Adapt a taint signal between granularities.

        1 -> w: splat (sign-extension of a 1-bit flag replicates it);
        w -> 1: OR-reduce (a word is tainted when any bit is).
        """
        if taint.width == width:
            return taint
        if taint.width == 1:
            return self.sext(taint, width, module)
        if width == 1:
            return self.redor(taint, module)
        if taint.width < width:
            return self.zext(taint, width, module)
        return self.redor(taint, module)  # conservative fallback

    def or_tree(self, items: Sequence[Signal], module: str, width: int = 1) -> Signal:
        """OR-reduce a list of same-width taint signals (empty -> 0)."""
        if not items:
            return self.zeros(width, module)
        acc = items[0]
        for item in items[1:]:
            acc = self.or_(acc, item, module=module)
        return acc

    def smear_up(self, x: Signal, module: str) -> Signal:
        """Set every bit at or above the lowest set bit (carry smear).

        Used by the value-independent refined taint of adders: carries
        only propagate towards higher bits.
        """
        acc = x
        shift = 1
        while shift < x.width:
            acc = self.or_(acc, self.shl_const(acc, shift, module), module=module)
            shift <<= 1
        return acc
