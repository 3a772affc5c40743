"""The hashed lowering against the reference pipeline it replaces.

The SAT path (:func:`repro.formal.bmc._as_lowered`) lowers with
``lower_to_gates(circuit, hashed=True)``, which folds and hash-conses
each gate as the lowering rules request it, and then cuts the
property's cone.  Its executable reference is the pipeline it
replaced::

    strash(cone_of_influence(simplify(lower_to_gates(c).netlist), roots))

(``simplify`` alone for the ``ExactValidator`` product, which has no
property).  For every flat lowering of the netlist-identity corpus
(``test_netlist_identity.flat_cases()``) this checks:

- simulation: from the same random register states and inputs, one
  ``Simulator`` reset per lane gives equal values, cycle by cycle, for the
  property roots, the outputs and the register next-state, on the
  hashed netlist, the reference and the raw lowering (which no hashing
  rule touches, so a rule both pipelines share cannot hide a fault);
- normal form: no hashed gate has a constant, duplicate or
  complementary operand, every operand list is sorted, and no two
  gates hash alike;

and on the ``random_machine`` corpus at all three sizes that
``bounded_model_check`` gives the same status and bound on the hashed,
the reference and the raw lowering.
"""

from __future__ import annotations

import os
import random
import sys
import zlib

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_netlist_identity import MACHINE_SIZES, flat_cases  # noqa: E402

LANES = 8
CYCLES = 6
MAX_BOUND = 5


def _reference(circuit, prop):
    from repro.formal.bmc import _property_roots
    from repro.hdl.lowering import LoweredCircuit, lower_to_gates
    from repro.hdl.optimize import cone_of_influence, simplify, strash

    raw = lower_to_gates(circuit)
    gates = simplify(raw.netlist)
    if prop is None:
        return raw, LoweredCircuit(None, raw.bits, netlist=gates)
    reduced = strash(cone_of_influence(gates, _property_roots(raw, prop)))
    kept = {q for q, _d, _reset in reduced.registers}
    pruned = {q: reset & 1 for q, _d, reset in gates.registers if q not in kept}
    return raw, LoweredCircuit(None, raw.bits, pruned, netlist=reduced)


def _observed(hashed, reference, prop):
    """Names both netlists must agree on, cycle by cycle."""
    from repro.formal.bmc import _property_roots

    names = set(_property_roots(hashed, prop)) if prop is not None else set()
    for net in (hashed.netlist, reference.netlist):
        names.update(net.outputs())
        names.update(q for q, _d, _reset in net.registers)
    return sorted(names & set(hashed.netlist.signals)
                  & set(reference.netlist.signals))


def _simulate(lowered, names, states, frames):
    """Per lane and cycle, the values of ``names`` after the clock edge."""
    from repro.sim import Simulator

    sim = Simulator(lowered.circuit)
    trace = []
    for lane, state in enumerate(states):
        sim.reset(state)
        for frame in frames:
            sim.step(frame[lane])
            trace.append({name: sim.peek(name) for name in names})
    return trace


def _check_simulation(hashed, reference, raw, prop, seed):
    rng = random.Random(seed)
    names = _observed(hashed, reference, prop)
    assert names
    inputs = raw.netlist.inputs()
    states = [{q: rng.getrandbits(1) for q, _d, _reset in raw.netlist.registers}
              for _ in range(LANES)]
    frames = [[{name: rng.getrandbits(1) for name in inputs} for _ in range(LANES)]
              for _ in range(CYCLES)]
    expected = _simulate(reference, names, states, frames)
    assert _simulate(hashed, names, states, frames) == expected
    # The raw lowering declares every name: roots, outputs and registers.
    assert _simulate(raw, names, states, frames) == expected


def _edge(name, not_of):
    negated = False
    while name in not_of:
        name, negated = not_of[name], not negated
    return name, negated


def _check_normal_form(lowered):
    net = lowered.netlist
    outputs = set(net.outputs())
    consts = {cell[1] for cell in net.cells if cell[0] == "const"}
    not_of = {cell[1]: cell[2][0] for cell in net.cells
              if cell[0] == "not" and cell[1] not in outputs}
    keys = set()
    for op, out, ins, params, _module in net.cells:
        if out in outputs:
            assert op in ("buf", "not", "const"), out
            continue
        assert op != "buf", out
        assert not set(ins) & consts, out
        if op == "const":
            key = (op, params)
        elif op == "not":
            assert ins[0] not in not_of, f"{out}: NOT of a NOT"
            key = (op, ins)
        else:
            edges = [_edge(name, not_of) for name in ins]
            assert len(edges) >= 2 and edges == sorted(edges), out
            nodes = [node for node, _negated in edges]
            assert len(set(nodes)) == len(nodes), f"{out}: repeated operand"
            if op == "xor":
                assert not any(negated for _node, negated in edges), out
            key = (op, tuple(edges))
        assert key not in keys, f"{out}: hashes like an earlier gate"
        keys.add(key)


@pytest.mark.parametrize("name", sorted(flat_cases()))
def test_hashed_lowering_simulates_like_the_reference(name):
    hashed, circuit, prop = flat_cases()[name]()
    raw, reference = _reference(circuit, prop)
    _check_normal_form(hashed)
    _check_simulation(hashed, reference, raw, prop, seed=zlib.crc32(name.encode()))


@pytest.mark.parametrize("size", sorted(MACHINE_SIZES))
def test_bmc_status_and_bound_match_the_reference(size):
    from repro.formal.bmc import bounded_model_check

    builds = {name: build for name, build in flat_cases().items()
              if name.startswith(f"machine-{size}-")}
    assert len(builds) == 100
    mismatched = []
    for name, build in builds.items():
        hashed, circuit, prop = build()
        raw, reference = _reference(circuit, prop)
        results = [bounded_model_check(lowered, prop, max_bound=MAX_BOUND)
                   for lowered in (hashed, reference, raw)]
        outcomes = {(result.status, result.bound) for result in results}
        if len(outcomes) != 1:
            mismatched.append((name, [(r.status.value, r.bound) for r in results]))
    assert not mismatched
