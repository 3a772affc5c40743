"""Soundness of the SAT-free static engine, cross-checked against BMC.

Fuzzes the same random sequential machines the formal engines
differential-test on and checks the abstraction never lies:

- ``static_verify`` answering *verified* forbids a BMC counterexample;
- its *violation* answers come with a counterexample that replays, and
  BMC agrees within its window;
- the proven-clean ``bound`` it donates to ``start_bound`` is sound:
  any BMC violation lies strictly deeper;
- every gate-level signal the ternary fixpoint pins to 0/1 holds that
  value on random concrete stimuli in simulation.
"""

import random

import pytest

from repro.analyze import constant_fixpoint, static_verify
from repro.bench.fuzz import random_machine
from repro.formal import BmcStatus, SafetyProperty, bounded_model_check
from repro.hdl.lowering import lower_to_gates
from repro.sim import Simulator

SEEDS = range(60)
MAX_BOUND = 8
PROP = SafetyProperty("p", "bad")


@pytest.mark.parametrize("seed", SEEDS)
def test_static_never_contradicts_bmc(seed):
    circuit = random_machine(seed)
    verdict = static_verify(circuit, PROP, max_frames=32)
    bmc = bounded_model_check(circuit, PROP, max_bound=MAX_BOUND,
                              time_limit=30)

    if verdict.status == "verified":
        assert bmc.status is not BmcStatus.COUNTEREXAMPLE, (
            f"seed {seed}: static claimed verified "
            f"({verdict.reason}) but BMC found a counterexample"
        )

    if verdict.status == "violation":
        cex = verdict.counterexample
        assert cex is not None
        wf = cex.replay(circuit)
        assert wf.value("bad", cex.length - 1) == 1, (
            f"seed {seed}: static counterexample does not replay"
        )
        if cex.length - 1 <= MAX_BOUND:
            assert bmc.status is BmcStatus.COUNTEREXAMPLE, (
                f"seed {seed}: static violation at depth {cex.length - 1} "
                f"but BMC found nothing"
            )

    # The proven-clean bound must be sound regardless of the verdict:
    # BMC may only find violations strictly deeper than it.
    if verdict.bound >= 0 and bmc.status is BmcStatus.COUNTEREXAMPLE:
        assert bmc.counterexample.length - 1 > verdict.bound, (
            f"seed {seed}: static proved cycles 0..{verdict.bound} clean "
            f"but BMC violates at {bmc.counterexample.length - 1}"
        )


@pytest.mark.parametrize("seed", range(10))
def test_constprop_constants_hold_in_simulation(seed):
    circuit = random_machine(seed, width=4, max_regs=3, max_ops=8)
    lowered = lower_to_gates(circuit)
    facts = constant_fixpoint(lowered)
    constants = {
        name: value for name, value in facts.constant_names().items()
        if name in lowered.circuit.signals
    }
    if not constants:
        pytest.skip("fixpoint pinned nothing on this seed")
    rng = random.Random(seed + 9000)
    frames = [
        {sig.name: rng.getrandbits(sig.width)
         for sig in lowered.circuit.inputs}
        for _ in range(16)
    ]
    wf = Simulator(lowered.circuit).run(frames, record=list(constants))
    for name, expected in constants.items():
        trace = wf.trace(name)
        assert all(v == expected for v in trace), (
            f"seed {seed}: fixpoint pinned {name} to {expected} but "
            f"simulation produced {set(trace)}"
        )
