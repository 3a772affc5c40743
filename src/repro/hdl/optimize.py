"""Netlist simplification: constant propagation, identities, CSE, DCE.

Applied to (usually gate-level) circuits before CNF encoding, this pass
typically shrinks instrumented designs by a large factor: taint logic
instantiates many constant-taint sources, blackbox OR-trees of zeros,
and mux trees with shared subtrees.

The pass preserves, by name: all INPUT signals, all registers (``q``
and reset value), and all OUTPUT signals.  Everything else may be
renamed, merged or removed.  Semantics are preserved exactly (the test
suite cross-simulates against the original).

Every pass here works on the flat :class:`~repro.hdl.netlist.Netlist`
and allocates no ``Cell`` or ``Signal`` per gate: given a netlist,
every pass returns a netlist.  Given a ``Circuit``, every pass returns
a validated ``Circuit`` (the same code, through
:meth:`Netlist.from_circuit` and :meth:`Netlist.to_circuit`).

The SAT pipeline does not run :func:`simplify` or :func:`strash`: the
hashed gate lowering applies :class:`EdgeHasher`, the rules
:func:`strash` applies, to each gate as it is emitted, and the
pipeline then runs one :func:`cone_of_influence` (or
:func:`eliminate_dead`) and hands the netlist to the frame compiler,
which checks and reads it.  ``strash(cone_of_influence(simplify(raw
lowering)))`` is that pipeline's reference implementation, which the
tests compare it against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.hdl.cells import Cell, CellOp, GATE_OPS, evaluate_cell
from repro.hdl.circuit import Circuit, CircuitError
from repro.hdl.netlist import OUTPUT, WIRE, FlatCell, Netlist
from repro.hdl.signals import Signal

_GATE_OPS = frozenset(op.value for op in GATE_OPS)


def _param(params, key: str) -> int:
    for name, value in params:
        if name == key:
            return value
    raise KeyError(key)


class _Simplifier:
    """Constant folding, identity rules and CSE in one topological sweep.

    A source signal's canonical form is a constant (an ``int``) or the
    name (a ``str``) of the output-netlist signal holding its value.
    """

    def __init__(self, source: Netlist) -> None:
        self.src = source
        self.out = Netlist(source.name + ".opt")
        self.repr: Dict[str, Union[int, str]] = {}
        self.cse: Dict[Tuple, str] = {}
        self._const_cells: Dict[Tuple[int, int], str] = {}
        self._tmp = 0

    # ------------------------------------------------------------------
    def run(self) -> Netlist:
        src, out, repr_ = self.src, self.out, self.repr
        for name in src.inputs():
            out.signals[name] = src.signals[name]
            repr_[name] = name
        for q, _d, _reset in src.registers:
            out.signals.setdefault(q, src.signals[q])
            repr_[q] = q
        simplify_cell = self._simplify_cell
        for cell in src.topo_cells():
            simplify_cell(cell)
        # Registers: next values through the canonical map.
        for q, d, reset in src.registers:
            out.registers.append((q, self._materialize(d), reset))
        # Outputs: keep names, driven from canonical sources.
        for name in src.outputs():
            source = self._materialize(name)
            if source == name:
                continue
            entry = src.signals[name]
            out.signals.setdefault(name, entry)
            out.cells.append(("buf", name, (source,), (), entry[2]))
        return eliminate_dead(out)

    # ------------------------------------------------------------------
    def _materialize(self, name: str) -> str:
        """Name (in the output netlist) holding this signal's value."""
        entry = self.repr[name]
        if isinstance(entry, str):
            return entry
        return self._const_cell(entry, self.src.signals[name][0])

    def _const_cell(self, value: int, width: int) -> str:
        key = (value, width)
        existing = self._const_cells.get(key)
        if existing is not None:
            return existing
        self._tmp += 1
        name = f"_opt_const{self._tmp}"
        self.out.signals.setdefault(name, (width, WIRE, ""))
        self.out.cells.append(("const", name, (), (("value", value),), ""))
        self._const_cells[key] = name
        return name

    def _emit(self, cell: FlatCell, in_names: List[str], width: int) -> None:
        """Emit a (possibly CSE-deduped) cell and record its output."""
        op, out_name, _ins, params, module = cell
        ins = tuple(in_names)
        key = (op, ins, params, width)
        existing = self.cse.get(key)
        if existing is not None:
            self.repr[out_name] = existing
            return
        self.out.signals.setdefault(out_name, (width, WIRE, module))
        self.out.cells.append((op, out_name, ins, params, module))
        self.cse[key] = out_name
        self.repr[out_name] = out_name

    def _evaluate(self, cell: FlatCell, values: List[int]) -> int:
        """:func:`evaluate_cell` on a flat cell (it reads widths, not names)."""
        op, out_name, ins, params, _module = cell
        widths = self.src.signals
        return evaluate_cell(
            Cell(CellOp(op), Signal(out_name, widths[out_name][0]),
                 tuple(Signal(n, widths[n][0]) for n in ins), params),
            values)

    # ------------------------------------------------------------------
    def _simplify_cell(self, cell: FlatCell) -> None:
        op, out_name, ins, params, _module = cell
        repr_ = self.repr
        if op == "const":
            repr_[out_name] = _param(params, "value") & self._mask(out_name)
            return
        entries = [repr_[n] for n in ins]
        for entry in entries:
            if isinstance(entry, str):
                break
        else:
            repr_[out_name] = self._evaluate(cell, entries) & self._mask(out_name)
            return
        if op == "buf":
            repr_[out_name] = entries[0]
            return
        consts = [None if isinstance(e, str) else e for e in entries]

        if op in ("and", "or", "xor"):
            self._simplify_bitwise(cell, entries, consts)
            return
        if op == "mux":
            self._simplify_mux(cell, entries, consts)
            return
        alias = self._word_rule(cell, entries, consts)
        if alias is not None:
            repr_[out_name] = alias
            return
        self._emit_generic(cell, entries)

    def _mask(self, name: str) -> int:
        return (1 << self.src.signals[name][0]) - 1

    def _word_rule(self, cell: FlatCell, entries, consts) -> Optional[Union[int, str]]:
        """Canonical form by a word-level identity, or ``None``."""
        op, out_name, ins, params, _module = cell
        widths = self.src.signals
        if op in ("add", "sub"):
            if consts[1] == 0:
                return entries[0]
            if op == "add" and consts[0] == 0:
                return entries[1]
        if op in ("shl", "shr"):
            if consts[1] == 0:
                return entries[0]
            if consts[1] is not None and consts[1] >= widths[out_name][0]:
                return 0
            if consts[0] == 0:
                return 0
        if op == "slice":
            if _param(params, "lo") == 0 and _param(params, "hi") == widths[ins[0]][0] - 1:
                return entries[0]
        if op in ("zext", "sext"):
            if widths[out_name][0] == widths[ins[0]][0]:
                return entries[0]
        if op in ("redor", "redand", "redxor"):
            if widths[ins[0]][0] == 1:
                return entries[0]
        if op in ("eq", "ule") and entries[0] == entries[1]:
            return 1
        if op in ("neq", "ult") and entries[0] == entries[1]:
            return 0
        return None

    def _emit_generic(self, cell: FlatCell, entries) -> None:
        widths = self.src.signals
        in_names = [entry if isinstance(entry, str)
                    else self._const_cell(entry, widths[name][0])
                    for name, entry in zip(cell[2], entries)]
        self._emit(cell, in_names, widths[cell[1]][0])

    def _simplify_bitwise(self, cell: FlatCell, entries, consts) -> None:
        op, out_name = cell[0], cell[1]
        width = self.src.signals[out_name][0]
        mask = (1 << width) - 1
        live: List[str] = []
        const_acc: Optional[int] = None
        for entry, const in zip(entries, consts):
            if const is not None:
                const_acc = const if const_acc is None else (
                    const_acc & const if op == "and"
                    else const_acc | const if op == "or"
                    else const_acc ^ const
                )
            else:
                live.append(entry)
        # Absorbing / identity constants.
        if const_acc is not None:
            if op == "and" and const_acc == 0:
                self.repr[out_name] = 0
                return
            if op == "or" and const_acc == mask:
                self.repr[out_name] = mask
                return
            identity = mask if op == "and" else 0
            if const_acc == identity:
                const_acc = None
        # Duplicate operands.
        if op == "xor":  # pairs cancel
            counts: Dict[str, int] = {}
            for entry in live:
                counts[entry] = counts.get(entry, 0) + 1
            live = [entry for entry, n in counts.items() if n % 2 == 1]
        else:
            live = list(dict.fromkeys(live))
        if not live:
            self.repr[out_name] = (const_acc if const_acc is not None else
                                   (mask if op == "and" else 0))
            return
        if len(live) == 1 and const_acc is None:
            self.repr[out_name] = live[0]
            return
        if const_acc is not None:
            live.append(self._const_cell(const_acc, width))
        live.sort()  # commutative: canonical order helps CSE
        self._emit(cell, live, width)

    def _simplify_mux(self, cell: FlatCell, entries, consts) -> None:
        sel_entry, a_entry, b_entry = entries
        out_name = cell[1]
        if consts[0] is not None:
            self.repr[out_name] = a_entry if consts[0] else b_entry
            return
        if a_entry == b_entry:
            self.repr[out_name] = a_entry
            return
        if self.src.signals[out_name][0] == 1 and consts[1] == 1 and consts[2] == 0:
            self.repr[out_name] = sel_entry
            return
        self._emit_generic(cell, entries)


def cone_of_influence(netlist: Union[Netlist, Circuit],
                      roots: Iterable[str]) -> Union[Netlist, Circuit]:
    """Restrict a netlist to the logic that can influence ``roots``.

    ``roots`` are signal names (typically a property's ``bad``,
    assumption and monitor signals at gate level).  The cone walks
    backwards through cells and *through registers*: reaching a
    register's ``q`` pulls the cone of its ``d`` in, so the result is
    closed under sequential influence — sound for unrolled reachability
    checks at any depth.

    Unlike dead-logic elimination (which keeps every output and
    register), this drops registers, outputs and cells outside the
    cone.  All INPUT signals are kept even when unreferenced: a pruned
    input costs one unconstrained solver variable and zero clauses, and
    keeping them means counterexamples still assign every input of the
    original interface.  A ``Circuit`` argument gives a validated
    ``Circuit``, a ``Netlist`` a ``Netlist``.
    """
    if isinstance(netlist, Circuit):
        return cone_of_influence(Netlist.from_circuit(netlist), roots).to_circuit()
    live = _cone(netlist, roots)
    return _restrict(netlist, [reg for reg in netlist.registers if reg[0] in live], live)


def _cone(netlist: Netlist, roots: Iterable[str]) -> Set[str]:
    """The names ``roots`` depend on, through cells and registers."""
    signals = netlist.signals
    next_of = {q: d for q, d, _reset in netlist.registers}
    fanins = {cell[1]: cell[2] for cell in netlist.cells}
    live: Set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        d = next_of.get(name)
        if d is not None:
            stack.append(d)
            continue
        if name not in signals:
            raise CircuitError(f"no signal named {name!r} in circuit {netlist.name!r}")
        stack.extend(fanins.get(name, ()))
    return live


def _restrict(netlist: Netlist, registers, live: Set[str]) -> Netlist:
    """The inputs, ``registers`` and the cells driving ``live`` names."""
    signals = netlist.signals
    out = Netlist(netlist.name)
    table = out.signals
    for sig in netlist.inputs():
        table[sig] = signals[sig]
    for q, _d, _reset in registers:
        table.setdefault(q, signals[q])
    out.registers = list(registers)
    cells = out.cells
    for cell in netlist.cells:
        if cell[1] in live:
            cells.append(cell)
            table.setdefault(cell[1], signals[cell[1]])
    return out


#: A 1-bit signal as ``(node, negated)``: ``node`` names the output
#: netlist signal holding it, or is ``None`` for a constant.
Edge = Tuple[Optional[str], bool]
FALSE: Edge = (None, False)
TRUE: Edge = (None, True)


class EdgeHasher:
    """Structural hashing of 1-bit gates over signed edges.

    The one implementation of the folding and hashing rules, shared by
    :func:`strash` (which applies them to a finished netlist) and the
    hashed gate lowering (:func:`repro.hdl.lowering.lower_to_gates`
    with ``hashed=True``, which applies them to each gate as it is
    requested):

    - ``BUF``/``NOT`` fold into the edge phase;
    - constants fold: ``x AND 0``, ``x OR 1`` absorb, ``x AND 1``,
      ``x OR 0`` drop the constant, and XOR folds a constant into the
      phase;
    - ``x AND ~x`` / ``x OR ~x`` absorb, duplicate AND/OR operands
      merge, and duplicate XOR operands cancel in pairs;
    - ``AND``/``OR``/``XOR`` nodes are hash-consed on
      ``(op, sorted signed inputs)``, so gates that differ only in
      operand order, buffering or input polarity spelling hash to the
      same node.

    Taint instrumentation duplicates the host design's logic as shadow
    logic; shared cones between original and shadow collapse here.

    ``OR`` is deliberately *not* De-Morganed into ``AND``: doing so
    materialises a NOT wall at every phase boundary and restructures
    the CNF for no extra dedup on real netlists (the duplicates taint
    instrumentation creates are op-identical).

    Nodes are emitted into ``out``; a subclass names them
    (:meth:`_fresh_name`).
    """

    def __init__(self, out: Netlist) -> None:
        self.out = out
        #: structural key -> canonical node name
        self.nodes: Dict[Tuple, str] = {}

    def _fresh_name(self, prefix: str, module: str) -> str:
        raise NotImplementedError

    @staticmethod
    def const(value: int) -> Edge:
        return TRUE if value & 1 else FALSE

    @staticmethod
    def negate(edge: Edge) -> Edge:
        """``NOT`` flips the phase (and ``BUF`` is the edge itself)."""
        return (edge[0], not edge[1])

    def _add(self, op: str, name: str, ins: Tuple[str, ...], params,
             entry: Tuple[int, str, str], module: str = "") -> None:
        self.out.signals.setdefault(name, entry)
        self.out.cells.append((op, name, ins, params, module))

    def materialize(self, edge: Edge, width: int = 1) -> str:
        """Name of an output-netlist signal carrying this edge's value."""
        node, negated = edge
        if node is None:
            key = ("const", int(negated))
            existing = self.nodes.get(key)
            if existing is not None:
                return existing
            name = self._fresh_name("const", "")
            self._add("const", name, (), (("value", int(negated)),), (width, WIRE, ""))
            self.nodes[key] = name
            return name
        if not negated:
            return node
        key = ("not", node)
        existing = self.nodes.get(key)
        if existing is not None:
            return existing
        name = self._fresh_name("not", "")
        self._add("not", name, (node,), (), (width, WIRE, ""))
        self.nodes[key] = name
        return name

    def drive(self, name: str, edge: Edge, entry: Tuple[int, str, str]) -> None:
        """Drive the named signal ``name`` (an OUTPUT) from an edge."""
        node, negated = edge
        if node == name and not negated:
            return  # the canonical node *is* the signal
        if node is None:
            self._add("const", name, (), (("value", int(negated)),), entry)
        elif negated:
            self._add("not", name, (node,), (), entry)
        else:
            self._add("buf", name, (node,), (), entry)

    def _node(self, key: Tuple, op: str, in_edges, name: Optional[str],
              module: str) -> str:
        """Hash-cons a gate node; returns its name.

        ``name`` is the name to give a new node when it is free; a new
        node is named by :meth:`_fresh_name` otherwise.
        """
        existing = self.nodes.get(key)
        if existing is not None:
            return existing
        ins = tuple(self.materialize(edge, 1) for edge in in_edges)
        if name is None or name in self.out.signals:
            name = self._fresh_name("n", module)
        self._add(op, name, ins, (), (1, WIRE, module), module)
        self.nodes[key] = name
        return name

    def and_or(self, op: str, ins: Sequence[Edge], name: Optional[str] = None,
               module: str = "") -> Edge:
        """The edge of ``op`` (``"and"`` or ``"or"``) over ``ins``."""
        is_and = op == "and"
        absorbing = FALSE if is_and else TRUE
        live: List[Tuple[str, bool]] = []
        seen: Set[Tuple[str, bool]] = set()
        for node, negated in ins:
            if node is None:
                if negated != is_and:
                    return absorbing  # x AND 0 / x OR 1
                continue  # identity constant
            if (node, not negated) in seen:
                return absorbing  # x AND ~x / x OR ~x
            if (node, negated) not in seen:
                seen.add((node, negated))
                live.append((node, negated))
        if not live:
            return TRUE if is_and else FALSE
        if len(live) == 1:
            return live[0]
        live.sort()
        return (self._node((op, tuple(live)), op, live, name, module), False)

    def xor(self, ins: Sequence[Edge], name: Optional[str] = None,
            module: str = "") -> Edge:
        """The edge of XOR over ``ins``."""
        parity = False
        counts: Dict[str, int] = {}
        for node, negated in ins:
            parity ^= negated  # XOR(~a, b) == ~XOR(a, b); consts fold too
            if node is not None:
                counts[node] = counts.get(node, 0) + 1
        nodes = sorted(n for n, c in counts.items() if c % 2 == 1)
        if not nodes:
            return (None, parity)
        if len(nodes) == 1:
            return (nodes[0], parity)
        key = ("xor", tuple(nodes))
        return (self._node(key, "xor", [(n, False) for n in nodes], name, module),
                parity)


class _Strasher(EdgeHasher):
    """:class:`EdgeHasher` over every cell of a netlist, in topological order.

    Cells that are not 1-bit gates pass through unchanged, which keeps
    the pass safe on arbitrary circuits (it just does nothing for
    them).  A new node keeps its source cell's name when that is a free
    WIRE name (preserves readability and lets outputs be their own
    canonical node); OUTPUT-kind signals are re-driven separately so
    the node itself stays a wire.
    """

    def __init__(self, source: Netlist) -> None:
        super().__init__(Netlist(source.name))
        self.src = source
        #: source signal name -> its edge
        self.edge: Dict[str, Edge] = {}
        self._tmp = 0

    def run(self) -> Netlist:
        src, out, edge = self.src, self.out, self.edge
        for name in src.inputs():
            out.signals[name] = src.signals[name]
            edge[name] = (name, False)
        for q, _d, _reset in src.registers:
            out.signals.setdefault(q, src.signals[q])
            edge[q] = (q, False)
        hash_cell = self._hash_cell
        for cell in src.topo_cells():
            hash_cell(cell)
        for q, d, reset in src.registers:
            out.registers.append(
                (q, self.materialize(edge[d], src.signals[d][0]), reset))
        for name in src.outputs():
            width, _kind, module = src.signals[name]
            self.drive(name, edge[name], (width, OUTPUT, module))
        return eliminate_dead(out)

    def _fresh_name(self, prefix: str, module: str) -> str:
        self._tmp += 1
        return f"_st_{prefix}{self._tmp}"

    def _hash_cell(self, cell: FlatCell) -> None:
        op, out_name, ins, params, module = cell
        edge = self.edge
        signals = self.src.signals
        out_entry = signals[out_name]
        if out_entry[0] == 1 and op in _GATE_OPS:
            if op == "const":
                edge[out_name] = self.const(_param(params, "value"))
                return
            in_edges = [edge[n] for n in ins]
            if op == "buf":
                edge[out_name] = in_edges[0]
                return
            if op == "not":
                edge[out_name] = self.negate(in_edges[0])
                return
            name = out_name if out_entry[1] == WIRE else None
            if op == "xor":
                edge[out_name] = self.xor(in_edges, name, module)
                return
            edge[out_name] = self.and_or(op, in_edges, name, module)
            return
        # Generic pass-through for non-gate cells (word-level circuits).
        in_names = tuple(self.materialize(edge[n], signals[n][0]) for n in ins)
        name = out_name
        existing = self.out.signals.get(name)
        if existing is not None and existing[:2] != out_entry[:2]:
            name = self._fresh_name("w", module)
            out_entry = (out_entry[0], out_entry[1], module)
        self._add(op, name, in_names, params, out_entry, module)
        edge[out_name] = (name, False)


def strash(netlist: Union[Netlist, Circuit]) -> Union[Netlist, Circuit]:
    """Hash-cons structurally identical 1-bit gates (see :class:`_Strasher`).

    A ``Netlist`` argument gives a ``Netlist``; a ``Circuit`` gives a
    validated ``Circuit``.
    """
    if isinstance(netlist, Circuit):
        return _Strasher(Netlist.from_circuit(netlist)).run().to_circuit()
    return _Strasher(netlist).run()


def eliminate_dead(netlist: Netlist) -> Netlist:
    """Drop cells not in the cone of any output or register next-value."""
    roots = netlist.outputs() + [d for _q, d, _reset in netlist.registers]
    return _restrict(netlist, netlist.registers, _cone(netlist, roots))


def simplify(netlist: Union[Netlist, Circuit]) -> Union[Netlist, Circuit]:
    """Run the full simplification pipeline on a netlist.

    A ``Netlist`` argument gives a ``Netlist``; a ``Circuit`` gives a
    validated ``Circuit``.
    """
    if isinstance(netlist, Circuit):
        return _Simplifier(Netlist.from_circuit(netlist)).run().to_circuit()
    return _Simplifier(netlist).run()
