"""Differential harness over every verification engine.

Fuzzes random small sequential machines (:func:`repro.bench.fuzz.
random_machine`) and checks that BMC, k-induction, PDR and the
portfolio scheduler agree on each one:

- any engine's PROVED forbids any other engine's counterexample;
- a violation found by one bounded search is found by all of them;
- every counterexample replays in the reference simulator with the
  ``bad`` signal firing at exactly the reported cycle.

This is the cross-engine analogue of the SAT solver's fuzz-vs-brute
force tests: four independent implementations of the same question
cross-validate each other on dozens of circuits.
"""

import os
import sys

import pytest

from repro.bench.fuzz import random_machine
from repro.formal import (
    BmcStatus,
    PortfolioConfig,
    PortfolioStatus,
    SafetyProperty,
    bounded_model_check,
    k_induction,
    verify_portfolio,
)
from repro.formal.certificate import check_certificate
from repro.formal.induction import InductionStatus
from repro.formal.pdr import PdrStatus, pdr_prove

#: 3-bit machines with <=3 registers: state space <= 2^9, so BMC depth 8
#: and 30 PDR frames are exhaustive for all practical purposes.
SEEDS = range(50)
MAX_BOUND = 8
PROP = SafetyProperty("p", "bad")


def _assert_cex_replays(cex, circuit, seed, engine):
    """The witness must drive ``bad`` high at the cycle it claims."""
    wf = cex.replay(circuit)
    reported = cex.length - 1
    assert wf.value("bad", reported) == 1, (
        f"seed {seed}: {engine} counterexample does not fire at "
        f"cycle {reported}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed):
    circuit = random_machine(seed)
    bmc = bounded_model_check(circuit, PROP, max_bound=MAX_BOUND, time_limit=30)
    ind = k_induction(circuit, PROP, max_k=5, time_limit=30, unique_states=True)
    pdr = pdr_prove(circuit, PROP, max_frames=30, time_limit=30)
    por = verify_portfolio(
        circuit, PROP,
        PortfolioConfig(max_bound=MAX_BOUND, induction_max_k=5,
                        time_limit=60),
    )

    found = bmc.status is BmcStatus.COUNTEREXAMPLE
    proved = (pdr.status is PdrStatus.PROVED
              or ind.status is InductionStatus.PROVED)

    # A proof and a violation on the same circuit is a soundness bug
    # in at least one engine.
    assert not (found and proved), (
        f"seed {seed}: bmc={bmc.status} ind={ind.status} pdr={pdr.status}"
    )

    if found:
        # Every engine that terminates on a violating circuit must also
        # report the violation (k-induction only searches its base case,
        # i.e. depths below max_k).
        assert pdr.status is PdrStatus.COUNTEREXAMPLE, (seed, pdr.status)
        assert por.status is PortfolioStatus.COUNTEREXAMPLE, (seed, por.status)
        _assert_cex_replays(bmc.counterexample, circuit, seed, "bmc")
        _assert_cex_replays(pdr.counterexample, circuit, seed, "pdr")
        _assert_cex_replays(por.counterexample, circuit, seed, "portfolio")
        if bmc.counterexample.length <= 5:
            assert ind.status is InductionStatus.COUNTEREXAMPLE, (seed, ind.status)
            _assert_cex_replays(ind.counterexample, circuit, seed, "kind")
    if ind.status is InductionStatus.PROVED:
        assert pdr.status is not PdrStatus.COUNTEREXAMPLE, (seed, pdr.status)
    if pdr.status is PdrStatus.PROVED:
        assert bmc.status is BmcStatus.BOUND_REACHED, (seed, bmc.status)
        assert por.status in (PortfolioStatus.PROVED,
                              PortfolioStatus.BOUND_REACHED), (seed, por.status)
        # Every PROVED PDR verdict ships an invariant certificate the
        # independent checker validates on a fresh encoding.
        assert pdr.certificate is not None, seed
        check = check_certificate(circuit, PROP, pdr.certificate)
        assert check.ok, (seed, check.reason)
    if por.status is PortfolioStatus.PROVED:
        assert bmc.status is BmcStatus.BOUND_REACHED, (seed, bmc.status)
        assert pdr.status is not PdrStatus.COUNTEREXAMPLE, (seed, pdr.status)


def test_process_portfolio_agrees_with_engines():
    """Spot check of the default portfolio lineup against plain BMC on
    a violating and a non-violating fuzzed circuit."""
    verdicts = {}
    for seed in SEEDS:
        circuit = random_machine(seed)
        bmc = bounded_model_check(circuit, PROP, max_bound=MAX_BOUND,
                                  time_limit=30)
        verdicts[seed] = bmc.status is BmcStatus.COUNTEREXAMPLE
        if len(set(verdicts.values())) == 2:
            break
    assert len(set(verdicts.values())) == 2, "fuzzer produced no variety"
    for seed, violating in list(verdicts.items())[-2:]:
        circuit = random_machine(seed)
        por = verify_portfolio(
            circuit, PROP,
            PortfolioConfig(max_bound=MAX_BOUND, induction_max_k=5,
                            time_limit=60),
        )
        if violating:
            assert por.status is PortfolioStatus.COUNTEREXAMPLE, (seed, por.status)
            _assert_cex_replays(por.counterexample, circuit, seed, "portfolio")
        else:
            assert por.status in (PortfolioStatus.PROVED,
                                  PortfolioStatus.BOUND_REACHED), (seed, por.status)


# ---------------------------------------------------------------------------
# encoding/reduction differentials (the fast formal hot path)
# ---------------------------------------------------------------------------

from repro.hdl.lowering import lower_to_gates  # noqa: E402
from repro.hdl.optimize import simplify  # noqa: E402
from repro.formal.sat.solver import SolveStatus  # noqa: E402
from repro.formal.unroll import Unroller  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import ReferenceUnroller  # noqa: E402


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("symbolic", [False, True])
def test_stamped_frames_equisatisfiable_with_reference(seed, symbolic):
    """Interpreted frames answer every per-depth reachability question
    exactly like the reference FrameEncoder path.

    This is the contract that lets the op program replace the
    reference: the same verdict for ``bad`` at every depth — with both
    a concrete reset (constant folding) and a fully symbolic initial
    state.
    """
    circuit = random_machine(seed)
    lowered = lower_to_gates(circuit)
    ref = ReferenceUnroller(lowered, symbolic_all=symbolic)
    fast = Unroller(lowered, symbolic_all=symbolic)
    for depth in range(5):
        ref.add_frame()
        fast.add_frame()
        ref_bad = ref.lit_of_bit(depth, "bad")
        fast_bad = fast.lit_of_bit(depth, "bad")
        ref_res = ref.solver.solve(assumptions=[ref_bad])
        fast_res = fast.solver.solve(assumptions=[fast_bad])
        assert ref_res.status == fast_res.status, (seed, depth)
        if ref_res.status is SolveStatus.UNSAT:
            ref.solver.add_clause((-ref_bad,))
            fast.solver.add_clause((-fast_bad,))


@pytest.mark.parametrize("seed", range(25))
def test_property_reduction_preserves_bmc_verdict(seed):
    """COI + strash (the Circuit entry path) vs. the raw lowered
    netlist (the LoweredCircuit entry path, which bypasses reduction):
    identical BMC verdicts and bounds, and any counterexample from the
    reduced netlist must replay on the ORIGINAL circuit."""
    circuit = random_machine(seed)
    reduced = bounded_model_check(circuit, PROP, max_bound=MAX_BOUND,
                                  time_limit=30)
    raw_lowered = lower_to_gates(circuit)
    raw_lowered = type(raw_lowered)(simplify(raw_lowered.circuit),
                                    raw_lowered.bits)
    unreduced = bounded_model_check(raw_lowered, PROP, max_bound=MAX_BOUND,
                                    time_limit=30)
    assert reduced.status == unreduced.status, seed
    assert reduced.bound == unreduced.bound, seed
    if reduced.status is BmcStatus.COUNTEREXAMPLE:
        assert reduced.counterexample.length == \
            unreduced.counterexample.length, seed
        _assert_cex_replays(reduced.counterexample, circuit, seed,
                            "bmc-reduced")


@pytest.mark.parametrize("seed", range(12))
def test_property_reduction_preserves_proofs(seed):
    """k-induction and PDR agree between the reduced and raw netlists:
    a proof on one side forbids a counterexample on the other."""
    circuit = random_machine(seed)
    raw_lowered = lower_to_gates(circuit)
    raw_lowered = type(raw_lowered)(simplify(raw_lowered.circuit),
                                    raw_lowered.bits)
    ind_red = k_induction(circuit, PROP, max_k=5, time_limit=30)
    ind_raw = k_induction(raw_lowered, PROP, max_k=5, time_limit=30)
    pdr_red = pdr_prove(circuit, PROP, max_frames=30, time_limit=30)
    pdr_raw = pdr_prove(raw_lowered, PROP, max_frames=30, time_limit=30)
    for red, raw, engine in ((ind_red, ind_raw, "kind"),
                             (pdr_red, pdr_raw, "pdr")):
        proved = {s for s in (red.status, raw.status)
                  if s in (InductionStatus.PROVED, PdrStatus.PROVED)}
        cex = {s for s in (red.status, raw.status)
               if s in (InductionStatus.COUNTEREXAMPLE,
                        PdrStatus.COUNTEREXAMPLE)}
        assert not (proved and cex), (seed, engine, red.status, raw.status)
    if ind_red.status is InductionStatus.COUNTEREXAMPLE:
        _assert_cex_replays(ind_red.counterexample, circuit, seed,
                            "kind-reduced")
    if pdr_red.status is PdrStatus.COUNTEREXAMPLE:
        _assert_cex_replays(pdr_red.counterexample, circuit, seed,
                            "pdr-reduced")
