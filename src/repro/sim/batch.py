"""Bit-parallel batch simulation: K testbenches per Python integer.

The scalar :class:`~repro.sim.simulator.Simulator` evaluates one
stimulus at a time.  But every cell
semantics in :func:`repro.hdl.cells.evaluate_cell` is bitwise-definable,
and Python integers are arbitrary-width — so the design can be
*transposed*: instead of one W-bit value per signal, hold W integer
*bit-planes* per signal, where bit ``k`` of plane ``b`` is lane ``k``'s
value of design bit ``b``.  One pass over the plane program then
simulates K concurrent testbenches (GLIFT-style bitslicing, K up to the
native integer width and beyond).

The netlist is compiled **once** into a flat op program over a list of
plane integers — ``(opcode, out_slot, a, b, 0)`` tuples of one fixed
shape, as in the scalar :class:`~repro.sim.simulator.Simulator`'s word
program, applied to two-value simulation of bit planes: wiring
ops (``BUF``/``SLICE``/``CONCAT``/``ZEXT``/``SEXT``) become compile-time
plane aliases that cost nothing at runtime, constants fold away, and
arithmetic lowers to carry/borrow chains over planes.

A program runs in two tiers.  One interpreter loop executes the op
tuples for its first :data:`HOT_STEPS` steps; most designs are stepped
only a few dozen times (the CEGAR prefilter, counterexample replay) and
never pay for generated code.  A program stepped more often turns its
ops into one Python statement each, compiles them, and runs the
compiled function from then on: about three times the interpreter's
speed, for a compile that costs about four times the op program's build.

Semantics are pinned to the scalar engines by the differential test
battery (``tests/property/test_batch_differential.py``): bit-identical
per-lane signal values, waveforms, and error behavior — out-of-range or
missing inputs raise :class:`SimulationError` with the exact message the
scalar simulators produce for the first failing lane.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.hdl.cells import Cell, CellOp
from repro.hdl.circuit import Circuit
from repro.sim.simulator import SimulationError
from repro.sim.waveform import BatchWaveform, Waveform

#: Plane descriptors: a nonnegative int is a slot in the plane array;
#: the two negatives are the compile-time constants.
CONST0 = -1
CONST1 = -2

#: Op program opcodes.  Every op is a tuple of one fixed shape,
#: ``(opcode, out_slot, a, b, 0)``, over the plane array ``p`` and the
#: all-lanes mask ``M``, so the interpreter unpacks it in its loop
#: header.  The 2-input forms read slots ``a`` and ``b``, NOT reads
#: ``a``, the two constant ops read nothing, and the n-ary AND, OR, XOR
#: and XNOR read the tuple of slots in ``a``.  Within the lane mask, NOT
#: is ``M ^ x`` and XNOR is ``M ^ (x ^ y ^ ...)``.
OP_CONST0 = 0
OP_CONST1 = 1
OP_NOT = 2
OP_AND2 = 3
OP_OR2 = 4
OP_XOR2 = 5
OP_XNOR2 = 6
OP_AND = 7
OP_OR = 8
OP_XOR = 9
OP_XNOR = 10

Op = Tuple[int, int, object, int, int]

#: Steps a program is interpreted before it compiles to Python code.
#: On CellIFT-instrumented tiny Rocket and Sodor (2-CPU x86-64 VM,
#: Python 3.11.7) the compile costs 55-83 / 39 ms, and one lane runs
#: 1,250-1,720 / 2,600 cycles/s interpreted against 3,900-5,700 /
#: 8,500 compiled: the tiers break even after 136-153 steps.  A slower
#: run of the same pair measured 100-125.
HOT_STEPS = 128

#: Statements per separately compiled chunk of the tier-up step body.
#: The compiler holds about 4 KB per statement while it runs: one
#: ``compile()`` of instrumented tiny Rocket's 5143-statement body
#: peaks at ~28 MB, while chunks of 64 keep the program build and its
#: compile near 2 MB with no measurable cost in compile or step time.
CHUNK_STATEMENTS = 64

LaneInputs = Union[Mapping[str, int], Sequence[Mapping[str, int]], None]


class _PlaneCompiler:
    """Compiles a circuit's cells into a bit-plane op program.

    ``desc_of[name]`` maps every signal to its LSB-first tuple of plane
    descriptors.  ``ops`` lists the emitted ``(opcode, out_slot, a, b,
    0)`` tuples in evaluation order.
    """

    def __init__(self) -> None:
        self.n_slots = 0
        self.ops: List[Op] = []
        self.desc_of: Dict[str, Tuple[int, ...]] = {}
        self._not_cache: Dict[int, int] = {}

    # -- slot / op helpers ----------------------------------------------
    def alloc(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def emit(self, code: int, *ins: int) -> int:
        slot = self.alloc()
        if len(ins) > 2:  # the n-ary forms
            self.ops.append((code, slot, ins, 0, 0))
        else:
            ins += (0, 0)
            self.ops.append((code, slot, ins[0], ins[1], 0))
        return slot

    # -- descriptor-level boolean algebra ------------------------------
    def not_(self, desc: int) -> int:
        if desc == CONST0:
            return CONST1
        if desc == CONST1:
            return CONST0
        cached = self._not_cache.get(desc)
        if cached is None:
            cached = self.emit(OP_NOT, desc)
            self._not_cache[desc] = cached
            self._not_cache[cached] = desc
        return cached

    def and_(self, descs: Sequence[int]) -> int:
        live: List[int] = []
        seen = set()
        for d in descs:
            if d == CONST0:
                return CONST0
            if d == CONST1 or d in seen:
                continue
            seen.add(d)
            live.append(d)
        if not live:
            return CONST1
        if len(live) == 1:
            return live[0]
        return self.emit(OP_AND2 if len(live) == 2 else OP_AND, *live)

    def or_(self, descs: Sequence[int]) -> int:
        live: List[int] = []
        seen = set()
        for d in descs:
            if d == CONST1:
                return CONST1
            if d == CONST0 or d in seen:
                continue
            seen.add(d)
            live.append(d)
        if not live:
            return CONST0
        if len(live) == 1:
            return live[0]
        return self.emit(OP_OR2 if len(live) == 2 else OP_OR, *live)

    def xor_(self, descs: Sequence[int]) -> int:
        parity = 0
        counts: Dict[int, int] = {}
        order: List[int] = []
        for d in descs:
            if d == CONST1:
                parity ^= 1
                continue
            if d == CONST0:
                continue
            if d not in counts:
                counts[d] = 0
                order.append(d)
            counts[d] ^= 1
        live = [d for d in order if counts[d]]
        if not live:
            return CONST1 if parity else CONST0
        if len(live) == 1:
            return self.not_(live[0]) if parity else live[0]
        if len(live) == 2:
            code = OP_XNOR2 if parity else OP_XOR2
        else:
            code = OP_XNOR if parity else OP_XOR
        return self.emit(code, *live)

    def mux_(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b`` on one plane."""
        if sel == CONST1:
            return a
        if sel == CONST0:
            return b
        if a == b:
            return a
        nsel = self.not_(sel)
        return self.or_([self.and_([sel, a]), self.and_([nsel, b])])

    # -- word-level building blocks ------------------------------------
    def add_chain(
        self, a: Sequence[int], b: Sequence[int], carry: int
    ) -> Tuple[List[int], int]:
        """Ripple-carry add; returns (sum planes, carry out)."""
        sums: List[int] = []
        for ai, bi in zip(a, b):
            axb = self.xor_([ai, bi])
            sums.append(self.xor_([axb, carry]))
            carry = self.or_([self.and_([ai, bi]), self.and_([carry, axb])])
        return sums, carry

    def sub_chain(self, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
        """``a - b`` as ``a + ~b + 1``; returns (diff planes, carry out).

        The carry out is 1 iff no borrow occurred, i.e. ``a >= b``.
        """
        nb = [self.not_(d) for d in b]
        return self.add_chain(a, nb, CONST1)

    def ult(self, a: Sequence[int], b: Sequence[int]) -> int:
        _, carry = self.sub_chain(a, b)
        return self.not_(carry)

    def const_planes(self, value: int, width: int) -> List[int]:
        return [CONST1 if (value >> b) & 1 else CONST0 for b in range(width)]

    # -- cell compilation ----------------------------------------------
    def compile_cell(self, cell: Cell) -> None:
        op = cell.op
        out_w = cell.out.width
        if op is CellOp.CONST:
            planes = self.const_planes(cell.param("value"), out_w)
            self.desc_of[cell.out.name] = tuple(planes)
            return
        ins = [self.desc_of[s.name] for s in cell.ins]
        if op is CellOp.BUF:
            planes = list(ins[0])
        elif op is CellOp.NOT:
            planes = [self.not_(d) for d in ins[0]]
        elif op is CellOp.AND:
            planes = [self.and_([w[b] for w in ins]) for b in range(out_w)]
        elif op is CellOp.OR:
            planes = [self.or_([w[b] for w in ins]) for b in range(out_w)]
        elif op is CellOp.XOR:
            planes = [self.xor_([w[b] for w in ins]) for b in range(out_w)]
        elif op is CellOp.MUX:
            sel = ins[0][0]
            planes = [self.mux_(sel, a, b) for a, b in zip(ins[1], ins[2])]
        elif op is CellOp.ADD:
            planes, _ = self.add_chain(ins[0], ins[1], CONST0)
        elif op is CellOp.SUB:
            planes, _ = self.sub_chain(ins[0], ins[1])
        elif op is CellOp.EQ:
            planes = [self.and_([self.not_(self.xor_([a, b]))
                                 for a, b in zip(ins[0], ins[1])])]
        elif op is CellOp.NEQ:
            planes = [self.or_([self.xor_([a, b])
                                for a, b in zip(ins[0], ins[1])])]
        elif op is CellOp.ULT:
            planes = [self.ult(ins[0], ins[1])]
        elif op is CellOp.ULE:
            # a <= b  <=>  not (b < a)  <=>  carry out of b - a... inverted twice
            planes = [self.not_(self.ult(ins[1], ins[0]))]
        elif op in (CellOp.SHL, CellOp.SHR):
            planes = self._compile_shift(cell, ins, left=op is CellOp.SHL)
        elif op is CellOp.CONCAT:
            planes = []
            for word in reversed(ins):  # ins[0] is most significant
                planes.extend(word)
        elif op is CellOp.SLICE:
            lo, hi = cell.param("lo"), cell.param("hi")
            planes = list(ins[0][lo:hi + 1])
        elif op is CellOp.ZEXT:
            planes = list(ins[0]) + [CONST0] * (out_w - len(ins[0]))
        elif op is CellOp.SEXT:
            sign = ins[0][-1]
            planes = list(ins[0]) + [sign] * (out_w - len(ins[0]))
        elif op is CellOp.REDOR:
            planes = [self.or_(list(ins[0]))]
        elif op is CellOp.REDAND:
            planes = [self.and_(list(ins[0]))]
        elif op is CellOp.REDXOR:
            planes = [self.xor_(list(ins[0]))]
        else:  # pragma: no cover - exhaustive over CellOp
            raise SimulationError(f"cannot batch-compile op {op}")
        self.desc_of[cell.out.name] = tuple(planes)

    def _compile_shift(
        self, cell: Cell, ins: Sequence[Tuple[int, ...]], left: bool
    ) -> List[int]:
        """Barrel shifter over the shamt planes, zeroed when shamt >= W."""
        data, shamt = list(ins[0]), ins[1]
        width = cell.out.width
        acc = data
        for j, sel in enumerate(shamt):
            amount = 1 << j
            if amount >= width:
                break  # larger shamt bits only matter via the >=W predicate
            if sel == CONST0:
                continue
            if left:
                shifted = [CONST0] * amount + acc[:width - amount]
            else:
                shifted = acc[amount:] + [CONST0] * amount
            if sel == CONST1:
                acc = shifted
            else:
                acc = [self.mux_(sel, s, a) for s, a in zip(shifted, acc)]
        max_shamt = (1 << len(shamt)) - 1
        if max_shamt < width:
            return acc  # shamt can never reach W: no zero-out needed
        cmp_width = max(len(shamt), width.bit_length())
        padded = list(shamt) + [CONST0] * (cmp_width - len(shamt))
        in_range = self.ult(padded, self.const_planes(width, cmp_width))
        return [self.and_([in_range, d]) for d in acc]


class BatchProgram:
    """A circuit translated once into a bit-plane op program.

    Lane-count independent: the same program serves any K.  ``ops`` is
    the op program; ``step_fn(p, M)`` evaluates it over the plane list
    ``p`` under the lane mask ``M``.  It interprets ``ops`` for the
    program's first :data:`HOT_STEPS` steps, over every simulator that
    shares the program, and then :meth:`tier_up` swaps in compiled
    code.  Cached on the circuit via :func:`batch_program_for`; a
    mutation of the circuit drops the cache.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        comp = _PlaneCompiler()
        # Register q planes live in dedicated, stable slots (written by
        # reset and the clock function, never by combinational code).
        self.reg_slots: List[Tuple[str, int, Tuple[int, ...]]] = []
        for reg in circuit.registers:
            slots = tuple(comp.alloc() for _ in range(reg.q.width))
            comp.desc_of[reg.q.name] = slots
            self.reg_slots.append((reg.q.name, reg.reset_value, slots))
        #: Register planes occupy slots ``[0, n_reg_slots)``.
        self.n_reg_slots = comp.n_slots
        # Input planes likewise: the pack step writes them directly.
        self.input_slots: List[Tuple[str, int, Tuple[int, ...]]] = []
        for sig in circuit.inputs:
            slots = tuple(comp.alloc() for _ in range(sig.width))
            comp.desc_of[sig.name] = slots
            self.input_slots.append((sig.name, sig.width, slots))
        for cell in circuit.topo_cells():
            comp.compile_cell(cell)
        self.clock_fn = self._clock_fn(comp)
        self.n_slots = comp.n_slots
        self.desc_of = comp.desc_of
        self.ops = comp.ops
        self.widths = {name: sig.width for name, sig in circuit.signals.items()}
        #: Steps run so far on the interpreter.
        self.interpreted_steps = 0
        #: True once :meth:`tier_up` has swapped in compiled code.
        self.compiled = False
        self.step_fn: Callable = self._interpret

    def _interpret(self, p: List[int], M: int) -> None:
        if self.interpreted_steps >= HOT_STEPS:
            self.tier_up()
            self.step_fn(p, M)
            return
        self.interpreted_steps += 1
        _run_ops(self.ops, p, M)

    def tier_up(self) -> None:
        """Compile the op program, one statement per op, into ``step_fn``."""
        if self.compiled:
            return
        body = [_op_source(op) for op in self.ops] or ["    pass"]
        self.step_fn = self._compile_fn(
            "_batch_step", body, f"<batch-step:{self.circuit.name}>")
        self.compiled = True

    def _clock_fn(self, comp: _PlaneCompiler) -> Callable:
        """``q <= d`` for every register bit, reads before writes.

        The q planes fill slots ``[0, n_reg_slots)`` in register order,
        so one gather of every d-plane and one slice assignment clock all
        registers, register-to-register chains included.  A constant
        d-plane gets a slot that the step program writes each cycle.
        """
        const_slots: Dict[int, int] = {}
        sources: List[int] = []
        for reg in self.circuit.registers:
            for desc in comp.desc_of[reg.d.name]:
                if desc < 0:
                    if desc not in const_slots:
                        const_slots[desc] = comp.emit(
                            OP_CONST0 if desc == CONST0 else OP_CONST1)
                    desc = const_slots[desc]
                sources.append(desc)
        n = len(sources)
        if n == 0:
            return lambda p, M: None
        if n == 1:
            (source,) = sources

            def clock_one(p, M):
                p[0] = p[source]
            return clock_one
        gather = itemgetter(*sources)

        def clock(p, M):
            p[:n] = gather(p)
        return clock

    @staticmethod
    def _compile_fn(name: str, body: List[str], filename: str) -> Callable:
        """Compile straight-line ``body`` into ``fn(p, M)``.

        The body is compiled in chunks of at most :data:`CHUNK_STATEMENTS`
        statements, one function each, called in order.  Every chunk
        reads and writes the same plane list, so the split changes
        nothing but the compiler's peak memory: one ``compile()`` of a
        processor-sized body holds its whole syntax tree at once.
        """
        chunks = []
        for start in range(0, len(body), CHUNK_STATEMENTS):
            source = "\n".join([f"def {name}(p, M):"]
                               + body[start:start + CHUNK_STATEMENTS])
            namespace: Dict[str, object] = {}
            exec(compile(source, filename, "exec"), namespace)
            chunks.append(namespace[name])
        if len(chunks) == 1:
            return chunks[0]

        def run_chunks(p, M):
            for chunk in chunks:
                chunk(p, M)
        return run_chunks


def _run_ops(ops: Sequence[Op], p: List[int], M: int) -> None:
    """Interpret an op program over the plane list ``p``."""
    for code, out, a, b, _ in ops:
        if code == OP_AND2:
            p[out] = p[a] & p[b]
        elif code == OP_OR2:
            p[out] = p[a] | p[b]
        elif code == OP_NOT:
            p[out] = M ^ p[a]
        elif code == OP_XOR2:
            p[out] = p[a] ^ p[b]
        elif code == OP_XNOR2:
            p[out] = M ^ p[a] ^ p[b]
        elif code == OP_AND:
            acc = M
            for slot in a:
                acc &= p[slot]
            p[out] = acc
        elif code == OP_OR:
            acc = 0
            for slot in a:
                acc |= p[slot]
            p[out] = acc
        elif code == OP_XOR or code == OP_XNOR:
            acc = M if code == OP_XNOR else 0
            for slot in a:
                acc ^= p[slot]
            p[out] = acc
        else:
            p[out] = M if code == OP_CONST1 else 0


_INFIX = {
    OP_AND2: " & ", OP_AND: " & ",
    OP_OR2: " | ", OP_OR: " | ",
    OP_XOR2: " ^ ", OP_XOR: " ^ ",
    OP_XNOR2: " ^ ", OP_XNOR: " ^ ",
}


def _op_source(op: Op) -> str:
    """One op as a statement of the compiled step body."""
    code, out, a, b, _ = op
    if code == OP_CONST0:
        expr = "0"
    elif code == OP_CONST1:
        expr = "M"
    elif code == OP_NOT:
        expr = f"M ^ p[{a}]"
    else:
        slots = a if code >= OP_AND else (a, b)  # OP_AND and up are n-ary
        expr = _INFIX[code].join(f"p[{slot}]" for slot in slots)
        if code == OP_XNOR2 or code == OP_XNOR:
            expr = f"M ^ ({expr})"
    return f"    p[{out}] = {expr}"


def batch_program_for(circuit: Circuit) -> BatchProgram:
    """Memoized :class:`BatchProgram` for a circuit.

    ``Circuit._changed`` drops the memo, so a cell added after the
    program was built is simulated too.
    """
    program = circuit._batch_program
    if program is None:
        program = BatchProgram(circuit)
        circuit._batch_program = program
    return program


def _pack(values: Sequence[int], width: int) -> List[int]:
    """Transpose per-lane values into LSB-first bit planes."""
    planes = [0] * width
    for lane, value in enumerate(values):
        bit = 1 << lane
        b = 0
        while value:
            if value & 1:
                planes[b] |= bit
            value >>= 1
            b += 1
    return planes


class BatchSimulator:
    """Simulate ``lanes`` concurrent testbenches of one circuit.

    Mirrors the :class:`~repro.sim.simulator.Simulator` surface, lifted
    to lanes: ``step`` takes either one input frame (broadcast to every
    lane) or a sequence of ``lanes`` per-lane frames; ``peek`` reads one
    lane or all of them; ``run`` consumes per-lane stimulus sequences
    and returns a :class:`~repro.sim.waveform.BatchWaveform` whose
    ``lane(k)`` slices are bit-identical to scalar runs.

    Per-lane taint instrumentation comes for free: instrument the
    circuit first and each lane carries its own shadow-taint state.
    """

    def __init__(
        self,
        circuit: Circuit,
        lanes: int = 64,
        initial_states: Optional[Union[Mapping[str, int], Sequence[Mapping[str, int]]]] = None,
        tracer=None,
    ) -> None:
        if lanes < 1:
            raise SimulationError(f"lane count must be >= 1, got {lanes}")
        self.circuit = circuit
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        self.program = batch_program_for(circuit)
        self.tracer = tracer
        self._planes: List[int] = [0] * self.program.n_slots
        # Register planes as they were before the last clock edge; None
        # while the current planes are themselves pre-edge.
        self._pre_edge: Optional[List[int]] = None
        self._reg_names = frozenset(name for name, _, _ in self.program.reg_slots)
        self._evaluated = False
        self._initial_states = self._per_lane_states(initial_states)
        self.cycle = 0
        self.reset()
        if tracer is not None:
            tracer.gauge("sim.lanes", lanes)

    # ------------------------------------------------------------------
    def _per_lane_states(
        self, states: Optional[Union[Mapping[str, int], Sequence[Mapping[str, int]]]]
    ) -> List[Dict[str, int]]:
        if states is None:
            return [{} for _ in range(self.lanes)]
        if isinstance(states, Mapping):
            return [dict(states) for _ in range(self.lanes)]
        states = list(states)
        if len(states) != self.lanes:
            raise SimulationError(
                f"got {len(states)} initial states for {self.lanes} lanes")
        return [dict(s) for s in states]

    def reset(
        self,
        initial_states: Optional[Union[Mapping[str, int], Sequence[Mapping[str, int]]]] = None,
    ) -> None:
        """Reset registers (reset values, overridden per lane)."""
        if initial_states is not None:
            self._initial_states = self._per_lane_states(initial_states)
        planes = self._planes
        for i in range(len(planes)):
            planes[i] = 0
        self.cycle = 0
        self._evaluated = False
        self._pre_edge = None
        for name, reset_value, slots in self.program.reg_slots:
            mask = (1 << len(slots)) - 1
            values = [init.get(name, reset_value) & mask
                      for init in self._initial_states]
            for slot, plane in zip(slots, _pack(values, len(slots))):
                planes[slot] = plane

    # ------------------------------------------------------------------
    def _frames(self, inputs: LaneInputs) -> List[Mapping[str, int]]:
        if inputs is None:
            inputs = {}
        if isinstance(inputs, Mapping):
            return [inputs] * self.lanes
        frames = list(inputs)
        if len(frames) != self.lanes:
            raise SimulationError(
                f"got {len(frames)} input frames for {self.lanes} lanes")
        return frames

    def _evaluate_comb(self, inputs: LaneInputs) -> None:
        input_slots = self.program.input_slots
        planes = self._planes
        mask = self.lane_mask
        if inputs is None:
            inputs = {}
        if isinstance(inputs, Mapping):
            # Broadcast fast path: validate the one frame, splat each
            # input bit to all lanes at once.
            writes = []
            for name, width, slots in input_slots:
                if name not in inputs:
                    raise SimulationError(f"missing input {name!r}")
                value = inputs[name]
                if value < 0 or value >> width:
                    raise SimulationError(
                        f"input {name!r}: value {value} exceeds width {width}")
                writes.append((slots, [mask if (value >> b) & 1 else 0
                                       for b in range(width)]))
        else:
            frames = self._frames(inputs)
            # Fast path per input: gather + min/max bounds check run at
            # C speed; any failure falls back to the lane-by-lane scan
            # that raises the first failing lane's exact scalar error.
            writes = []
            try:
                for name, width, slots in input_slots:
                    values = [f[name] for f in frames]
                    if min(values) < 0 or max(values) >> width:
                        self._raise_invalid(frames)
                    writes.append((slots, _pack(values, width)))
            except KeyError:
                self._raise_invalid(frames)
        # All lanes validated: only now touch simulator state.
        for slots, value_planes in writes:
            for slot, plane in zip(slots, value_planes):
                planes[slot] = plane
        self.program.step_fn(planes, mask)
        self._evaluated = True
        self._pre_edge = None

    def _raise_invalid(self, frames: Sequence[Mapping[str, int]]) -> None:
        # Lane-by-lane in scalar input order, so the raised error is
        # what the first failing lane's scalar run would raise.
        for frame in frames:
            for name, width, _slots in self.program.input_slots:
                if name not in frame:
                    raise SimulationError(f"missing input {name!r}")
                value = frame[name]
                if not (0 <= value < (1 << width)):
                    raise SimulationError(
                        f"input {name!r}: value {value} exceeds width {width}")
        raise SimulationError("invalid input frame")  # pragma: no cover

    def _clock(self) -> None:
        planes = self._planes
        self._pre_edge = planes[:self.program.n_reg_slots]
        self.program.clock_fn(planes, self.lane_mask)

    def step(self, inputs: LaneInputs = None) -> List[Dict[str, int]]:
        """Advance all lanes one clock cycle; returns per-lane outputs."""
        self._evaluate_comb(inputs)
        out_planes = {sig.name: self.peek_planes(sig.name)
                      for sig in self.circuit.outputs}
        outputs = [
            {name: self._unpack(planes, lane)
             for name, planes in out_planes.items()}
            for lane in range(self.lanes)
        ]
        self._finish_step()
        return outputs

    def advance(self, inputs: LaneInputs = None) -> None:
        """:meth:`step` without materializing per-lane output dicts.

        Identical state evolution; for K-hungry loops that poll a couple
        of signals via :meth:`peek_planes` instead of reading outputs.
        """
        self._evaluate_comb(inputs)
        self._finish_step()

    def _finish_step(self) -> None:
        self._clock()
        self.cycle += 1
        if self.tracer is not None:
            self.tracer.count("sim.steps")
            self.tracer.count("sim.lane_steps", self.lanes)

    # ------------------------------------------------------------------
    def _descs(self, signal_name: str) -> Tuple[int, ...]:
        descs = self.program.desc_of.get(signal_name)
        if descs is None or (not self._evaluated
                             and signal_name not in self._reg_names):
            raise SimulationError(f"signal {signal_name!r} has no value yet")
        return descs

    def peek_planes(self, signal_name: str) -> Tuple[int, ...]:
        """LSB-first bit planes of a signal across all lanes.

        Reads what the scalar engines' ``peek`` reads: after a step, a
        register is its clocked value and every other signal its value
        in the cycle just evaluated.  A wire compiled to an alias of a
        register's slot therefore reads the pre-edge register planes.
        """
        descs = self._descs(signal_name)
        planes = self._planes
        pre = self._pre_edge
        if pre is not None and signal_name in self._reg_names:
            pre = None
        n_pre = len(pre) if pre is not None else 0
        out = []
        for d in descs:
            if d == CONST0:
                out.append(0)
            elif d == CONST1:
                out.append(self.lane_mask)
            elif d < n_pre:
                out.append(pre[d])
            else:
                out.append(planes[d])
        return tuple(out)

    def peek(self, signal_name: str, lane: Optional[int] = None):
        """Value of a signal: one lane (int) or all lanes (list)."""
        planes = self.peek_planes(signal_name)
        if lane is None:
            return [self._unpack(planes, k) for k in range(self.lanes)]
        if not (0 <= lane < self.lanes):
            raise SimulationError(f"lane {lane} outside [0, {self.lanes})")
        return self._unpack(planes, lane)

    @staticmethod
    def _unpack(planes: Sequence[int], lane: int) -> int:
        value = 0
        for b, plane in enumerate(planes):
            value |= ((plane >> lane) & 1) << b
        return value

    def snapshot(self, lane: int) -> Dict[str, int]:
        """All signal values of one lane (post-evaluation)."""
        return {name: self.peek(name, lane) for name in self.program.desc_of}

    def state(self, lane: Optional[int] = None):
        """Register values: one lane's dict, or a per-lane list."""
        names = [name for name, _, _ in self.program.reg_slots]
        if lane is not None:
            return {name: self.peek(name, lane) for name in names}
        per_name = {name: self.peek(name) for name in names}
        return [{name: per_name[name][k] for name in names}
                for k in range(self.lanes)]

    # ------------------------------------------------------------------
    def run(
        self,
        stimuli,
        record: Optional[Sequence[str]] = None,
    ) -> BatchWaveform:
        """Apply stimulus to every lane, recording a batch waveform.

        ``stimuli`` is either a scalar-style sequence of input frames
        (broadcast to every lane) or a sequence of ``lanes`` per-lane
        stimulus sequences.  Ragged per-lane lengths are rejected up
        front, before any lane steps.
        """
        per_cycle = self._stimulus_frames(stimuli)
        names = list(record) if record is not None else list(self.circuit.signals)
        waveform = BatchWaveform(names, self.lanes,
                                 {n: self.program.widths[n] for n in names
                                  if n in self.program.widths})
        import time as _time

        started = _time.monotonic()
        for frames in per_cycle:
            self._evaluate_comb(frames)
            waveform.record({name: self.peek_planes(name) for name in names})
            self._clock()
            self.cycle += 1
        if self.tracer is not None:
            elapsed = _time.monotonic() - started
            steps = len(per_cycle)
            self.tracer.count("sim.steps", steps)
            self.tracer.count("sim.lane_steps", steps * self.lanes)
            if elapsed > 0:
                self.tracer.gauge("sim.steps_per_sec",
                                  steps * self.lanes / elapsed)
        return waveform

    def _stimulus_frames(self, stimuli) -> List[LaneInputs]:
        stimuli = list(stimuli)
        if not stimuli:
            return []
        if isinstance(stimuli[0], Mapping):
            return stimuli  # scalar-style: broadcast each frame
        per_lane = [list(s) for s in stimuli]
        if len(per_lane) != self.lanes:
            raise SimulationError(
                f"got {len(per_lane)} per-lane stimuli for {self.lanes} lanes")
        length = len(per_lane[0])
        for k, frames in enumerate(per_lane):
            if len(frames) != length:
                raise SimulationError(
                    f"ragged stimulus: lane {k} has {len(frames)} frames, "
                    f"lane 0 has {length}")
        return [[per_lane[k][t] for k in range(self.lanes)]
                for t in range(length)]
