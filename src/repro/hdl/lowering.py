"""Cell → gate lowering (bit blasting).

Lowers a cell-level circuit into a 1-bit gate-level circuit using only
``CONST``/``BUF``/``NOT``/``AND``(2)/``OR``(2)/``XOR``(2) cells.  This is
the paper's *gate* unit level: a MUX becomes two AND gates, an OR gate
and a NOT gate (the exact decomposition discussed in Section 3.2),
adders become ripple-carry chains, and shifts become barrel stages.

The lowering serves two consumers:

- gate-level taint instrumentation (unit level = GATE), and
- the CNF encoder of :mod:`repro.formal` (which only understands gates).

Multi-bit signal ``x`` of width *n* becomes gate signals ``x[0]`` …
``x[n-1]``; width-1 signals keep their original name so that waveforms
and counterexamples remain readable.

Gates are emitted as plain tuples into a flat
:class:`~repro.hdl.netlist.Netlist`; a lowering's ``Circuit`` is built
only for callers that read ``LoweredCircuit.circuit``.  The lowering
rules below are written once, over abstract bits, for two gate sinks:

- the raw lowering (the default) emits every gate a rule requests,
  named, and drives each word's bits through a ``BUF``: the paper's
  gate vocabulary, which gate-level taint instrumentation, lint and
  the statistics count;
- the hashed lowering (``hashed=True``) is the SAT path
  (:func:`repro.formal.bmc._as_lowered`,
  :class:`repro.cegar.falsetaint.ExactValidator`): each gate goes
  through :class:`repro.hdl.optimize.EdgeHasher`, the rules
  :func:`~repro.hdl.optimize.strash` applies, as it is requested, so
  constants fold, ``NOT`` flips an edge's phase, a word's bits alias
  the edges that compute them, and the un-hashed intermediate netlist
  is never built.  The caller cuts the result to the property's cone
  (or drops dead logic) and hands it straight to the frame compiler.
  ``simplify``, ``cone_of_influence`` and ``strash`` over the raw
  lowering stay as its reference, in the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit, CircuitError
from repro.hdl.netlist import OUTPUT, WIRE, FlatCell, Netlist
from repro.hdl.optimize import Edge, EdgeHasher
from repro.hdl.signals import Signal, SignalKind


class LoweredCircuit:
    """A gate-level circuit plus the bit-provenance map.

    Attributes:
        circuit: The 1-bit gate netlist as a ``Circuit``.  A flat
            lowering builds it only when something reads it
            (certificates, a replay on the lowering, serialization).
        netlist: The flat :class:`~repro.hdl.netlist.Netlist` the
            lowering, and on the SAT path the cone cut after it,
            emitted (``None`` when given a ``circuit``).  The frame compiler reads it
            through :meth:`topo_cells`, :meth:`input_names` and
            :meth:`register_entries`, and never builds ``circuit``.
        bits: ``original signal name -> [gate signal per bit]`` (LSB first).
        pruned_resets: reset bit of register bits that a
            cone-of-influence reduction removed from ``circuit`` but
            that ``bits`` still references — the property cannot
            observe them, so counterexample extraction reads their
            value from here instead of the SAT model.
    """

    def __init__(
        self,
        circuit: Optional[Circuit],
        bits: Dict[str, List[Signal]],
        pruned_resets: Optional[Dict[str, int]] = None,
        *,
        netlist: Optional[Netlist] = None,
        validate: bool = True,
    ) -> None:
        self._circuit = circuit
        self.netlist = netlist
        self._validate = validate
        #: The netlist's checked topological order, once computed.
        self._order: Optional[List[int]] = None
        #: Memo of :func:`repro.formal.cache.circuit_fingerprint`.
        self._content_fingerprint: Optional[str] = None
        self.bits = bits
        self.pruned_resets = pruned_resets if pruned_resets is not None else {}

    @property
    def circuit(self) -> Circuit:
        if self._circuit is None:
            # The check runs once, shared with topo_cells; a netlist that
            # passed it gives a validated circuit without checking again.
            if self._validate and self._order is None:
                self._order = self.netlist.checked_order()
            self._circuit = self.netlist.to_circuit(False, self._order)
        return self._circuit

    def topo_cells(self) -> List[FlatCell]:
        """The gate cells as flat tuples, in dependency order.

        A flat lowering's structure is checked once, in this pass
        (:meth:`Netlist.checked_order`); a malformed netlist raises what
        ``Circuit.validate`` raises.
        """
        if self.netlist is None:
            return [(cell.op.value, cell.out.name, tuple(s.name for s in cell.ins),
                     cell.params, cell.module) for cell in self._circuit.topo_cells()]
        if self._order is None:
            self._order = self.netlist.checked_order()
        cells = self.netlist.cells
        return [cells[i] for i in self._order]

    def input_names(self) -> List[str]:
        """Gate-level input names, in ``circuit.inputs`` order."""
        if self.netlist is None:
            return [sig.name for sig in self._circuit.inputs]
        return self.netlist.inputs()

    def register_entries(self) -> List[Tuple[str, str, int]]:
        """``(q, d, reset)`` of each register, in ``circuit.registers`` order."""
        if self.netlist is None:
            return [(reg.q.name, reg.d.name, reg.reset_value)
                    for reg in self._circuit.registers]
        return self.netlist.registers

    def bit(self, name: str, index: int) -> Signal:
        return self.bits[name][index]

    def pack(self, name: str, bit_values: Dict[str, int]) -> int:
        """Reassemble an original signal's value from per-bit values."""
        value = 0
        for i, sig in enumerate(self.bits[name]):
            value |= (bit_values[sig.name] & 1) << i
        return value

    def unpack(self, name: str, value: int) -> Dict[str, int]:
        """Split an original signal's value into per-bit assignments."""
        return {sig.name: (value >> i) & 1 for i, sig in enumerate(self.bits[name])}


_CONST_PARAMS = ((("value", 0),), (("value", 1),))


class _Lowerer:
    """Bit-blasts a circuit into a flat netlist, gate names as strings.

    The lowering rules handle bits only through the gate primitives
    (``_const``, ``g_not``, ``g_and``, ``g_or``, ``g_xor``) and
    ``_assign``: here a bit is a gate name, in :class:`_HashedLowerer`
    a signed edge.
    """

    def __init__(self, source: Circuit) -> None:
        self.source = source
        self.out = Netlist(source.name + ".gates")
        self.bits: Dict[str, List[Signal]] = {}
        #: ``bits`` by name: what the lowering rules below pass around.
        self.names: Dict[str, List[str]] = {}
        self._tmp = 0

    # -- helpers ---------------------------------------------------------
    def _gate(self, op: str, ins: Tuple[str, ...], module: str, params=()) -> str:
        self._tmp += 1
        name = f"{module}._g{self._tmp}" if module else f"_g{self._tmp}"
        self.out.signals[name] = (1, WIRE, module)
        self.out.cells.append((op, name, ins, params, module))
        return name

    def _const(self, value: int, module: str) -> str:
        return self._gate("const", (), module, _CONST_PARAMS[value & 1])

    def g_not(self, a: str, module: str) -> str:
        return self._gate("not", (a,), module)

    def g_and(self, a: str, b: str, module: str) -> str:
        return self._gate("and", (a, b), module)

    def g_or(self, a: str, b: str, module: str) -> str:
        return self._gate("or", (a, b), module)

    def g_xor(self, a: str, b: str, module: str) -> str:
        return self._gate("xor", (a, b), module)

    def g_mux(self, s: str, a: str, b: str, module: str) -> str:
        """s ? a : b as (s&a) | (~s&b) — the paper's MUX gate decomposition."""
        return self.g_or(self.g_and(s, a, module), self.g_and(self.g_not(s, module), b, module), module)

    def _reduce(self, op_fn, items: Sequence[str], module: str) -> str:
        acc = items[0]
        for item in items[1:]:
            acc = op_fn(acc, item, module)
        return acc

    # -- signal splitting --------------------------------------------------
    def _declare(self, sig: Signal) -> None:
        kind = sig.kind
        if kind is SignalKind.CONST:
            kind = SignalKind.WIRE
        if sig.width == 1:
            names = [sig.name]
        else:
            names = [f"{sig.name}[{i}]" for i in range(sig.width)]
        if kind is SignalKind.INPUT:
            # REG bits are declared by the register pass, the others by
            # the cell driving them.
            for name in names:
                self.out.signals.setdefault(name, (1, kind.value, sig.module))
        self.bits[sig.name] = [Signal(name, 1, kind, sig.module) for name in names]
        self.names[sig.name] = names

    def _assign(self, word: str, sources: List[str], module: str) -> None:
        """Drive a word's declared (named) bit signals from computed ones."""
        signals, cells = self.out.signals, self.out.cells
        for target, source in zip(self.bits[word], sources):
            signals.setdefault(target.name, (1, target.kind.value, target.module))
            cells.append(("buf", target.name, (source,), (), module))

    # -- main ---------------------------------------------------------------
    def run(self, validate: bool = True) -> LoweredCircuit:
        src = self.source
        for sig in src.signals.values():
            self._declare(sig)
        # Registers: one per bit; next-value bits come from the d signal's bits.
        for reg in src.registers:
            for i, (qb, db) in enumerate(zip(self.bits[reg.q.name], self.names[reg.d.name])):
                self.out.signals.setdefault(qb.name, (1, qb.kind.value, qb.module))
                self.out.registers.append((qb.name, db, (reg.reset_value >> i) & 1))
        declared = len(self.out.signals)
        for cell in src.topo_cells():
            self._lower_cell(cell)
        if len(self.out.signals) != declared + len(self.out.cells):
            self._collision()
        return LoweredCircuit(None, self.bits, netlist=self.out, validate=validate)

    def _collision(self) -> None:
        raise CircuitError(
            f"gate names of circuit {self.source.name!r} collide with its signal names")

    def _lower_cell(self, cell: Cell) -> None:
        m = cell.module
        width = cell.out.width
        in_bits = [self.names[s.name] for s in cell.ins]
        op = cell.op
        if op is CellOp.CONST:
            value = cell.param("value")
            computed = [self._const((value >> i) & 1, m) for i in range(width)]
        elif op is CellOp.BUF:
            computed = in_bits[0]
        elif op is CellOp.NOT:
            computed = [self.g_not(b, m) for b in in_bits[0]]
        elif op in (CellOp.AND, CellOp.OR, CellOp.XOR):
            fn = {CellOp.AND: self.g_and, CellOp.OR: self.g_or, CellOp.XOR: self.g_xor}[op]
            computed = [
                self._reduce(fn, [operand[i] for operand in in_bits], m)
                for i in range(width)
            ]
        elif op is CellOp.MUX:
            sel = in_bits[0][0]
            computed = [self.g_mux(sel, a, b, m) for a, b in zip(in_bits[1], in_bits[2])]
        elif op in (CellOp.ADD, CellOp.SUB):
            computed = self._lower_addsub(in_bits[0], in_bits[1], op is CellOp.SUB, m)
        elif op in (CellOp.EQ, CellOp.NEQ):
            diffs = [self.g_xor(a, b, m) for a, b in zip(in_bits[0], in_bits[1])]
            any_diff = self._reduce(self.g_or, diffs, m)
            computed = [any_diff if op is CellOp.NEQ else self.g_not(any_diff, m)]
        elif op in (CellOp.ULT, CellOp.ULE):
            if op is CellOp.ULE:  # a <= b  ==  not (b < a)
                lt = self._lower_ult(in_bits[1], in_bits[0], m)
                computed = [self.g_not(lt, m)]
            else:
                computed = [self._lower_ult(in_bits[0], in_bits[1], m)]
        elif op in (CellOp.SHL, CellOp.SHR):
            computed = self._lower_shift(in_bits[0], in_bits[1], op is CellOp.SHL, m)
        elif op is CellOp.CONCAT:
            computed = []
            for operand in reversed(in_bits):  # ins[0] is MSB -> place last
                computed.extend(operand)
        elif op is CellOp.SLICE:
            lo, hi = cell.param("lo"), cell.param("hi")
            computed = in_bits[0][lo:hi + 1]
        elif op is CellOp.ZEXT:
            pad = width - len(in_bits[0])
            computed = list(in_bits[0]) + [self._const(0, m) for _ in range(pad)]
        elif op is CellOp.SEXT:
            pad = width - len(in_bits[0])
            sign = in_bits[0][-1]
            computed = list(in_bits[0]) + [sign] * pad
        elif op is CellOp.REDOR:
            computed = [self._reduce(self.g_or, in_bits[0], m)]
        elif op is CellOp.REDAND:
            computed = [self._reduce(self.g_and, in_bits[0], m)]
        elif op is CellOp.REDXOR:
            computed = [self._reduce(self.g_xor, in_bits[0], m)]
        else:  # pragma: no cover
            raise ValueError(f"cannot lower op {op}")
        self._assign(cell.out.name, computed, m)

    def _lower_addsub(
        self, a: List[str], b: List[str], subtract: bool, m: str
    ) -> List[str]:
        carry = self._const(1 if subtract else 0, m)
        result = []
        for ai, bi in zip(a, b):
            bi_eff = self.g_not(bi, m) if subtract else bi
            axb = self.g_xor(ai, bi_eff, m)
            result.append(self.g_xor(axb, carry, m))
            carry = self.g_or(self.g_and(ai, bi_eff, m), self.g_and(carry, axb, m), m)
        return result

    def _lower_ult(self, a: List[str], b: List[str], m: str) -> str:
        """Unsigned a < b via the final borrow of a - b."""
        borrow = self._const(0, m)
        for ai, bi in zip(a, b):
            na = self.g_not(ai, m)
            t1 = self.g_and(na, bi, m)
            t2 = self.g_and(na, borrow, m)
            t3 = self.g_and(bi, borrow, m)
            borrow = self._reduce(self.g_or, [t1, t2, t3], m)
        return borrow

    def _lower_shift(
        self, a: List[str], sh: List[str], left: bool, m: str
    ) -> List[str]:
        width = len(a)
        zero = self._const(0, m)
        cur = list(a)
        overflow_bits = []
        for j, sel in enumerate(sh):
            amount = 1 << j
            if amount >= width:
                overflow_bits.append(sel)
                continue
            nxt = []
            for i in range(width):
                src = i - amount if left else i + amount
                shifted = cur[src] if 0 <= src < width else zero
                nxt.append(self.g_mux(sel, shifted, cur[i], m))
            cur = nxt
        if overflow_bits:
            any_overflow = self._reduce(self.g_or, overflow_bits, m)
            keep = self.g_not(any_overflow, m)
            cur = [self.g_and(keep, bit, m) for bit in cur]
        return cur


class _HashingSink(EdgeHasher):
    """Strash's rules, naming new gates the way the raw lowering does."""

    def __init__(self, out: Netlist) -> None:
        super().__init__(out)
        self._tmp = 0

    def _fresh_name(self, prefix: str, module: str) -> str:
        self._tmp += 1
        return f"{module}._g{self._tmp}" if module else f"_g{self._tmp}"


class _HashedLowerer(_Lowerer):
    """The lowering rules above, with every gate sent through a hashing sink.

    A bit is a signed edge (:data:`repro.hdl.optimize.Edge`), not a
    name: each gate a rule requests is folded and hash-consed on the
    spot by :class:`repro.hdl.optimize.EdgeHasher` (the rules
    :func:`repro.hdl.optimize.strash` applies), ``NOT`` only flips the
    phase, and a word's bits alias the edges that compute them, so no
    ``BUF`` and no un-hashed gate is ever emitted.  INPUT bits and
    register ``q`` bits keep their names; register ``d`` bits and
    OUTPUT bits are materialized at the end.  Gates that end up driving
    nothing stay in the netlist: the caller cuts it to a cone.
    """

    def __init__(self, source: Circuit) -> None:
        super().__init__(source)
        self.sink = _HashingSink(self.out)

    def _const(self, value: int, module: str) -> Edge:
        return self.sink.const(value)

    def g_not(self, a: Edge, module: str) -> Edge:
        return self.sink.negate(a)

    def g_and(self, a: Edge, b: Edge, module: str) -> Edge:
        return self.sink.and_or("and", (a, b), None, module)

    def g_or(self, a: Edge, b: Edge, module: str) -> Edge:
        return self.sink.and_or("or", (a, b), None, module)

    def g_xor(self, a: Edge, b: Edge, module: str) -> Edge:
        return self.sink.xor((a, b), None, module)

    def _assign(self, word: str, sources: List[Edge], module: str) -> None:
        self.names[word] = sources

    def run(self, validate: bool = True) -> LoweredCircuit:
        src, out, names = self.source, self.out, self.names
        for sig in src.signals.values():
            self._declare(sig)
            if sig.kind is SignalKind.INPUT:
                names[sig.name] = [(name, False) for name in names[sig.name]]
        for reg in src.registers:
            bits = self.bits[reg.q.name]
            for qb in bits:
                out.signals.setdefault(qb.name, (1, qb.kind.value, qb.module))
            names[reg.q.name] = [(qb.name, False) for qb in bits]
        for cell in src.topo_cells():
            self._lower_cell(cell)
        materialize = self.sink.materialize
        for reg in src.registers:
            for i, (qb, d) in enumerate(zip(self.bits[reg.q.name], names[reg.d.name])):
                out.registers.append((qb.name, materialize(d), (reg.reset_value >> i) & 1))
        # A gate name is "<module>._g<n>" or "_g<n>": only a 1-bit signal
        # of the source can take it.
        taken = {name for name, sig in src.signals.items() if sig.width == 1}
        if any(cell[1] in taken for cell in out.cells):
            self._collision()
        for sig in src.signals.values():
            if sig.kind is SignalKind.OUTPUT:
                for bit, source in zip(self.bits[sig.name], names[sig.name]):
                    self.sink.drive(bit.name, source, (1, OUTPUT, bit.module))
        return LoweredCircuit(None, self.bits, netlist=out, validate=validate)


def lower_to_gates(circuit: Circuit, validate: bool = True, *,
                   hashed: bool = False) -> LoweredCircuit:
    """Lower a cell-level circuit to the 1-bit gate vocabulary.

    The lowering is built flat; its ``circuit`` is built, and validated
    unless ``validate=False``, when first read.  The SAT pipeline reads
    only ``netlist`` and never builds it.

    By default every gate the lowering rules request is emitted, named
    and in the paper's gate vocabulary (gate-level taint
    instrumentation, lint and the statistics count them).  With
    ``hashed=True`` each gate is folded and hash-consed as it is
    requested (:class:`_HashedLowerer`), which is what the SAT pipeline
    lowers with: the result equals, up to names and order, ``strash``
    of ``simplify`` of the raw lowering, plus dead gates that the
    caller's cone or :func:`~repro.hdl.optimize.eliminate_dead` pass
    removes.
    """
    lowerer = _HashedLowerer(circuit) if hashed else _Lowerer(circuit)
    return lowerer.run(validate=validate)
