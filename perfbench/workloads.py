"""The benchmark's four workloads.

``setup(name, seed, scale, tmp)`` builds a workload's inputs and returns
its operations.  One operation is one ``run_compass``, one gadget check
or one stream verify; running it returns an outcome dict:

- ``verdict`` and ``bound`` — gated against ``expected.json``;
- ``trajectory`` (and, for CEGAR runs, ``refinements`` and
  ``cex_eliminated``) — reported, never gated, because planned changes
  to the loop (the batched prefilter) legitimately move the RNG
  trajectory once.

Every call into the program goes through a module attribute
(``loop.run_compass``, not a name imported into this module), so the
wrappers of :mod:`layers` see it.

Scales: ``full`` is what the timed runs measure; ``quick`` runs all four
workloads in a few seconds each and exists for the benchmark's tests.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

#: The tiny core every CEGAR workload uses.
TINY = dict(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)

#: sodor-verify and rocket-testing pin the CEGAR RNG: across seeds their
#: trajectories differ by up to 1.5x in work (18 vs 28 refinements on
#: Sodor), which a run of one or a few operations cannot average out.
#: Rocket's seed 4 with 20 prefilter trials is a 6-counterexample,
#: 14-refinement trajectory of about 7 s.
SODOR_SEED = 0
ROCKET_SEED = 4

SCALES = {
    "full": {
        # 8 prefilter trials instead of 48 take 10 s of simulation off a
        # run whose depth-4 BMC frame alone is 12-20 s of SAT.
        "sodor": dict(max_bound=4, sim_trials=8),
        "rocket": dict(sim_trials=20, sim_depth=16, max_counterexamples=200),
        "gadget_bounds": {"bug1-spectre": 6, "secure-spectre": 6},
        "stream_tasks": 50,
    },
    "quick": {
        "sodor": dict(max_bound=2, sim_trials=4, sim_depth=6),
        "rocket": dict(sim_trials=4, sim_depth=8, max_counterexamples=200),
        "gadget_bounds": {"bug1-spectre": 6, "secure-spectre": 4},
        "stream_tasks": 3,
    },
}


@dataclass
class Operation:
    key: str                    # which expected verdict applies
    run: Callable[[], Dict]
    warm: bool = False          # served from an earlier visit's store
    #: Operations sharing a request id form one user request for the
    #: latency metrics (the four gadget checks are one bug hunt); an
    #: empty id is a request of its own.
    request: str = ""


def _digest(*parts) -> str:
    text = "\n".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _compass_outcome(result) -> Dict:
    from repro.cegar.speculate import scheme_digest

    stats = result.stats
    return {
        "verdict": result.status.value,
        "bound": result.bound,
        "refinements": stats.refinements,
        "cex_eliminated": stats.counterexamples_eliminated,
        "trajectory": _digest(scheme_digest(result.scheme), *stats.refinement_log),
    }


# -- sodor-verify / rocket-testing -----------------------------------------

def _sodor(seed: int, knobs: Dict, tmp: str) -> List[Operation]:
    from repro.cegar import loop
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_sodor

    task = make_contract_task(build_sodor(CoreConfig(**TINY)))
    config = loop.CegarConfig(use_induction=False, seed=SODOR_SEED,
                              **knobs["sodor"])
    return [Operation("verify",
                      lambda: _compass_outcome(loop.run_compass(task, config)))]


def _rocket(seed: int, knobs: Dict, tmp: str) -> List[Operation]:
    from repro.cegar import loop
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, build_rocket

    task = make_contract_task(build_rocket(CoreConfig(**TINY)))
    config = loop.CegarConfig(mc_enabled=False, exact_validation=False,
                              max_refinements=400, seed=ROCKET_SEED,
                              **knobs["rocket"])
    return [Operation("verify",
                      lambda: _compass_outcome(loop.run_compass(task, config)))]


# -- prospect-bughunt -------------------------------------------------------

def _gadget_check(core, program, max_bound: int) -> Dict:
    """Directed check of one gadget (``examples/find_prospect_bugs.py``)."""
    from repro.cegar import falsetaint, loop
    from repro.contracts import make_contract_task
    from repro.formal import bmc
    from repro.formal.properties import SafetyProperty
    from repro.taint import cellift_scheme

    task = make_contract_task(core)
    scheme = cellift_scheme()
    for module in core.precise_modules:
        scheme.module_defaults[module] = scheme.default
    design, prop = loop.instrument_task(task, scheme)
    pinned = core.initial_state_for(program)
    free = frozenset(set(task.symbolic_registers) - set(core.imem_words))
    directed = SafetyProperty(prop.name, prop.bad, prop.assumptions,
                              prop.init_assumptions, free)
    result = bmc.bounded_model_check(design.circuit, directed,
                                     max_bound=max_bound, time_limit=120,
                                     initial_values=pinned)
    if result.status is not bmc.BmcStatus.COUNTEREXAMPLE:
        verdict = ("secure" if result.status is bmc.BmcStatus.BOUND_REACHED
                   else result.status.value)
        return {"verdict": verdict, "bound": result.bound,
                "trajectory": _digest(result.bound)}
    cex = result.counterexample.with_initial_state(pinned)
    taint_wf = cex.replay(design.circuit)
    last = taint_wf.length - 1
    sink = next(s for s in core.sinks
                if taint_wf.value(design.taint_name[s], last))
    spurious = falsetaint.exact_false_taint_check(
        core.circuit, cex, task.secret_registers(), sink,
        init_assumption_outputs=core.init_assumption_outputs,
    )
    return {"verdict": "spurious_taint" if spurious else "real_leak",
            "bound": last, "trajectory": _digest(sink, last)}


def _prospect(seed: int, knobs: Dict, tmp: str) -> List[Operation]:
    from repro.bench.gadgets import NESTED_BRANCH_GADGET, SPECTRE_GADGET
    from repro.cores import CoreConfig, build_prospect

    cfg = CoreConfig.formal()
    secure = build_prospect(cfg, secure=True)
    checks = {
        "bug1-spectre": (build_prospect(cfg, bug1=True, bug2=False), SPECTRE_GADGET),
        "secure-spectre": (secure, SPECTRE_GADGET),
        "bug2-nested": (build_prospect(cfg, bug1=False, bug2=True), NESTED_BRANCH_GADGET),
        "secure-nested": (secure, NESTED_BRANCH_GADGET),
    }
    ops = []
    for key, bound in knobs["gadget_bounds"].items():
        core, program = checks[key]
        ops.append(Operation(key, lambda c=core, p=program, b=bound:
                             _gadget_check(c, p, b), request="bughunt"))
    return ops


# -- verify-stream -----------------------------------------------------------

def mux_chain_task(index: int, stages: int, width: int, leaky: bool):
    """A Figure-2-family task: a secret behind a chain of muxes.

    The head mux is attacker-selected.  In a safe task every later mux
    is pinned to its public register, so the blackbox's taint on the
    sink is spurious and Compass proves the task; in a leaky task the
    attacker also drives the tail selects and the secret reaches the
    sink — a real leak.
    """
    from repro.cegar.loop import TaintVerificationTask
    from repro.hdl import ModuleBuilder
    from repro.taint import TaintSources

    b = ModuleBuilder(f"chain{index}")
    head = b.input("sel_head", 1)
    tail = b.input("sel_tail", 1) if leaky else b.const(0, 1)
    regs = ["m.secret"]
    with b.scope("m"):
        secret = b.reg("secret", width)
        secret.drive(secret)
        pubs = []
        for i in range(stages):
            reg = b.reg(f"pub{i}", width)
            reg.drive(reg)
            pubs.append(reg)
            regs.append(f"m.pub{i}")
        out = b.named("o0", b.mux(head, secret, pubs[0]))
        for i in range(1, stages):
            out = b.named(f"o{i}", b.mux(tail, out, pubs[i]))
    b.output("sink", out)
    return TaintVerificationTask(
        name=f"chain{index}",
        circuit=b.build(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset(regs),
    )


#: Pairs up the stream's task properties.  Fixed, so that every seed
#: verifies the same multiset of tasks: the latency percentiles depend
#: on the mix of cheap leaks and costlier proofs.  With the mix and the
#: tasks' CEGAR seeds drawn from the seed, cold p50 and p90 moved by
#: 11% across three seeds.
SHAPES_SEED = 0


def stream_shapes(rng: random.Random, count: int):
    """(stages, width, leaky) per task: 3-7 stages, width 4/6/8, 30% leaky.

    ``rng`` pairs the three properties up; how often each value occurs
    is fixed.
    """
    stages = [3 + i % 5 for i in range(count)]
    widths = [(4, 6, 8)[i % 3] for i in range(count)]
    leaky = [i < round(0.3 * count) for i in range(count)]
    for column in (stages, widths, leaky):
        rng.shuffle(column)
    return list(zip(stages, widths, leaky))


def _stream(seed: int, knobs: Dict, tmp: str) -> List[Operation]:
    from repro.cegar import loop

    shapes = stream_shapes(random.Random(SHAPES_SEED), knobs["stream_tasks"])
    tasks = [(mux_chain_task(i, *shape), shape[2])
             for i, shape in enumerate(shapes)]
    # The seed orders the visits.  Each task's CEGAR seed is its index,
    # so every seed verifies the same tasks the same way; only the
    # order, and with it the spacing of first and second visits, moves.
    store_dir = os.path.join(tmp, "store")
    visits = [i for i in range(len(tasks)) for _ in range(2)]
    random.Random(seed).shuffle(visits)
    seen = set()
    ops = []
    configs = [loop.CegarConfig(engine="portfolio", jobs=2, max_bound=6,
                                induction_max_k=6, store_dir=store_dir,
                                seed=i) for i in range(len(tasks))]
    for n, i in enumerate(visits):
        task, leaky = tasks[i]
        config = configs[i]
        ckpt = os.path.join(tmp, f"ckpt-{n}")
        ops.append(Operation(
            "leaky" if leaky else "safe",
            lambda t=task, c=config, d=ckpt: _compass_outcome(
                loop.run_compass(t, c, checkpoint_dir=d)),
            warm=i in seen,
        ))
        seen.add(i)
    return ops


_SETUP = {
    "sodor-verify": _sodor,
    "rocket-testing": _rocket,
    "prospect-bughunt": _prospect,
    "verify-stream": _stream,
}


def setup(name: str, seed: int, scale: str, tmp: str) -> List[Operation]:
    return _SETUP[name](seed, SCALES[scale], tmp)


#: Traced-run self-check: per-layer counters that must be nonzero on a
#: workload, and counters of layers that must stay silent on it.
MUST_FIRE = {
    "sodor-verify": ("formal.sat_calls", "formal.frames", "hdl.lowerings",
                     "cegar.sim_prefilter_calls", "cegar.refinements",
                     "cegar.validations", "sim.builds", "formal.replays",
                     "taint.instruments"),
    "rocket-testing": ("cegar.sim_prefilter_calls", "cegar.refinements",
                       "sim.builds", "formal.replays", "taint.instruments"),
    "prospect-bughunt": ("hdl.lowerings", "formal.frames", "formal.sat_calls",
                         "cegar.validations", "formal.replays",
                         "taint.instruments"),
    "verify-stream": ("formal.portfolio_calls", "store.hits", "store.appended",
                      "cegar.checkpoints", "taint.instruments"),
}
STREAM_ONLY = ("formal.portfolio_calls", "formal.certificates",
               "cegar.checkpoints", "store.appended", "store.hits")
MUST_STAY_SILENT = {
    "sodor-verify": STREAM_ONLY,
    "rocket-testing": STREAM_ONLY + ("formal.sat_calls", "hdl.lowerings"),
    "prospect-bughunt": STREAM_ONLY,
    "verify-stream": (),
}
