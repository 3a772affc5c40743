"""Formal engine verdicts on a fixed case set, against a committed baseline.

Each case runs its engines standalone (BMC, k-induction, PDR) and every
verdict must equal the one recorded in
``benchmarks/results/formal_verdicts_baseline.json``, so that hot-path
work on the encoder, the solver or PDR cannot change an answer.  The
cases are fuzzed sequential machines (the differential-test
population), a wider fuzz tier, and taint-instrumented and
self-composed tiny Sodor (the Table-2 shape).  Timing is perfbench's
job; nothing here is timed.
"""

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.formal import SafetyProperty, bounded_model_check, k_induction
from repro.formal.pdr import pdr_prove

BASELINE = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "formal_verdicts_baseline.json")
#: Per-engine wall-clock cap; a timeout is a verdict mismatch.
TIME_LIMIT = 60.0


def _fuzz_case(seed, **kwargs):
    from repro.bench.fuzz import random_machine

    return random_machine(seed, **kwargs), SafetyProperty("p", "bad")


def _tiny_sodor():
    from repro.cores import CoreConfig, core_registry

    cfg = CoreConfig.formal(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)
    return core_registry()["Sodor"](cfg, True)


def _cellift_contract_case():
    """Taint-instrumented tiny Sodor: the COI/strash showcase."""
    from repro.cegar.loop import instrument_task
    from repro.contracts import make_contract_task
    from repro.taint import cellift_scheme

    design, prop = instrument_task(make_contract_task(_tiny_sodor()),
                                   cellift_scheme())
    return design.circuit, prop


def _selfcomp_case():
    """Two-copy self-composition of tiny Sodor (the Ht baseline shape)."""
    from repro.contracts import make_selfcomp_property

    task = make_selfcomp_property(_tiny_sodor())
    return task.circuit, task.prop


def _wrap_counter_case():
    """Wrapping counter with an unreachable bad state.

    The counter wraps at 3 but ``bad`` fires at 9.  The bad state is
    unreachable from reset, yet the unreachable chain 4 -> 5 -> ... -> 9
    defeats k-induction below k=6 and BMC can only report its bound, so
    the one definitive verdict must come from PDR's inductive
    generalization.
    """
    from repro.hdl import ModuleBuilder

    b = ModuleBuilder("wrap")
    en = b.input("en", 1)
    c = b.reg("cnt", 4)
    c.drive(b.mux(c.eq(3), b.const(0, 4), c + 1), en=en)
    b.output("bad", c.eq(9))
    return b.build(), SafetyProperty("p", "bad")


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable[[], Tuple]
    engines: Tuple[str, ...]
    max_bound: int
    max_k: int
    max_frames: int = 30


CASES = [
    *(Case(f"fuzz-w3-s{seed}", lambda seed=seed: _fuzz_case(seed),
           ("bmc", "kind", "pdr"), max_bound=8, max_k=5)
      for seed in (0, 3, 7, 11)),
    *(Case(f"fuzz-w4-s{seed}",
           lambda seed=seed: _fuzz_case(seed, width=4, max_regs=4, max_ops=10),
           ("bmc", "kind"), max_bound=10, max_k=5, max_frames=20)
      for seed in (2, 5)),
    Case("sodor-cellift-bmc", _cellift_contract_case, ("bmc",),
         max_bound=2, max_k=2, max_frames=10),
    Case("sodor-cellift-kind", _cellift_contract_case, ("kind",),
         max_bound=2, max_k=2, max_frames=10),
    Case("sodor-selfcomp-bmc", _selfcomp_case, ("bmc",),
         max_bound=2, max_k=2, max_frames=10),
]


def _status(engine, circuit, prop, case):
    if engine == "bmc":
        result = bounded_model_check(circuit, prop, max_bound=case.max_bound,
                                     time_limit=TIME_LIMIT)
    elif engine == "kind":
        result = k_induction(circuit, prop, max_k=case.max_k,
                             time_limit=TIME_LIMIT)
    else:
        result = pdr_prove(circuit, prop, max_frames=case.max_frames,
                           time_limit=TIME_LIMIT)
    return result.status.value


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_verdicts_match_baseline(baseline, case):
    expected = baseline[case.name]
    circuit, prop = case.build()
    got = {engine: _status(engine, circuit, prop, case)
           for engine in case.engines}
    assert got == {engine: expected[engine]["status"]
                   for engine in case.engines}


def test_pdr_is_the_only_definitive_engine_on_wrap_counter():
    """PDR wins the engine race on the wrap counter whatever the timing:
    it proves the property while BMC reports only its bound and
    k-induction at ``max_k=2`` is inconclusive."""
    case = Case("pdr-wrap-invariant", _wrap_counter_case,
                ("bmc", "kind", "pdr"), max_bound=8, max_k=2)
    circuit, prop = case.build()
    got = {engine: _status(engine, circuit, prop, case)
           for engine in case.engines}
    assert got == {"bmc": "bound_reached", "kind": "unknown", "pdr": "proved"}
