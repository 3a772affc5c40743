"""Speculative CEGAR end-to-end: determinism vs the sequential walk,
loser cancellation, crash supervision, and checkpoint/resume."""

import multiprocessing
import random

import pytest

from repro.hdl import ModuleBuilder
from repro.taint import TaintSources
from repro.taint.scheme_io import scheme_to_dict
from repro.cegar import (
    CegarConfig,
    CegarStatus,
    TaintVerificationTask,
    run_compass,
)


def build_fig2():
    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel23 = b.const(0, 1)
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pubs = []
        for i in range(1, 4):
            reg = b.reg(f"pub{i}", 4)
            reg.drive(reg)
            pubs.append(reg)
        o1 = b.named("o1", b.mux(sel1, secret, pubs[0]))
        o2 = b.named("o2", b.mux(sel23, o1, pubs[1]))
        o3 = b.named("o3", b.mux(sel23, o2, pubs[2]))
    b.output("sink", o3)
    return b.build()


def fig2_task():
    return TaintVerificationTask(
        name="fig2", circuit=build_fig2(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"m.secret", "m.pub1", "m.pub2",
                                      "m.pub3"}),
    )


def fuzz_task(seed: int) -> TaintVerificationTask:
    """A small random mux/logic tree over one secret and public state.

    Safe by construction when the secret never feeds the sink cone, or
    overtainting-prone otherwise — either way, the sequential and the
    speculative runs must agree exactly.
    """
    rng = random.Random(seed)
    b = ModuleBuilder(f"fuzz{seed}")
    sels = [b.input(f"sel{i}", 1) for i in range(2)]
    secret = b.reg("secret", 4)
    secret.drive(secret)
    pubs = []
    for i in range(3):
        reg = b.reg(f"pub{i}", 4)
        reg.drive(reg)
        pubs.append(reg)
    pool = list(pubs)
    if rng.random() < 0.5:
        pool.append(b.mux(sels[0], secret, pubs[0]))
    for depth in range(rng.randint(2, 4)):
        a, c = rng.sample(pool, 2)
        op = rng.choice(["mux", "and", "or", "xor"])
        if op == "mux":
            out = b.mux(sels[depth % 2], a, c)
        elif op == "and":
            out = a & c
        elif op == "or":
            out = a | c
        else:
            out = a ^ c
        pool.append(out)
    b.output("sink", pool[-1])
    return TaintVerificationTask(
        name=f"fuzz{seed}", circuit=b.build(),
        sources=TaintSources(registers={"secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"secret", "pub0", "pub1", "pub2"}),
    )


def _fingerprint(result):
    return (
        result.status,
        result.bound,
        scheme_to_dict(result.scheme),
        list(result.stats.refinement_log),
        result.stats.counterexamples_eliminated,
        result.stats.refinements,
    )


def _run(task_factory, n, **overrides):
    overrides.setdefault("seed", 0)
    config = CegarConfig(max_bound=6, induction_max_k=6,
                         speculate=n, **overrides)
    return run_compass(task_factory(), config)


class TestDeterminism:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_fig2_identical_to_sequential(self, n):
        base = _run(fig2_task, 0)
        spec = _run(fig2_task, n)
        assert _fingerprint(spec) == _fingerprint(base)
        # The run genuinely speculated (fig2 refines at least once).
        assert spec.stats.spec_submitted >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzed_circuits_identical_to_sequential(self, seed):
        base = _run(lambda: fuzz_task(seed), 0)
        spec = _run(lambda: fuzz_task(seed), 2)
        assert _fingerprint(spec) == _fingerprint(base)

    def test_seedless_config_identical_to_sequential(self):
        base = _run(fig2_task, 0, seed=None)
        spec = _run(fig2_task, 3, seed=None)
        assert _fingerprint(spec) == _fingerprint(base)


class TestSodorContract:
    @pytest.fixture(scope="class")
    def runs(self):
        from repro.cores import CoreConfig, build_sodor
        from repro.contracts import make_contract_task

        tiny = CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)

        def run(n):
            core = build_sodor(tiny)
            task = make_contract_task(core)
            # No wall-clock limits: determinism comparisons need
            # time-independent trajectories.
            config = CegarConfig(max_bound=3, use_induction=False,
                                 sim_trials=12, sim_depth=8,
                                 max_refinements=60, seed=0, speculate=n)
            return run_compass(task, config)

        return run(0), run(4)

    def test_speculative_sodor_matches_sequential(self, runs):
        base, spec = runs
        assert _fingerprint(spec) == _fingerprint(base)

    def test_sodor_speculation_was_exercised(self, runs):
        _base, spec = runs
        assert spec.stats.spec_submitted >= 1
        assert spec.stats.spec_waves >= 1


class TestCancellation:
    def test_losers_die_and_leave_no_orphans(self):
        from repro.cegar.speculate import SpeculativeScheduler
        from repro.cegar.loop import RefinementStats
        from repro.faults import FaultPlan, delay_verdict

        task = fig2_task()
        # Workers finish the verify quickly but sit on the verdict for
        # 30s — cancellation must terminate them, not wait them out.
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=2,
                             faults=FaultPlan((delay_verdict("spec", 30.0),)))
        scheduler = SpeculativeScheduler(task, config, None,
                                         RefinementStats())
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            scheduler.ensure(task.initial_scheme(), None)
            spawned = [p for p in multiprocessing.active_children()
                       if p.pid not in before]
            assert spawned, "ensure() must launch a worker process"
            scheduler.discard(task.initial_scheme())
            for proc in spawned:
                proc.join(timeout=10.0)
                assert not proc.is_alive(), "cancelled loser still running"
        finally:
            scheduler.close()
        leftover = [p for p in multiprocessing.active_children()
                    if p.pid not in before]
        assert not leftover, f"orphan speculative workers: {leftover}"

    def test_close_reaps_everything(self):
        from repro.cegar.speculate import SpeculativeScheduler
        from repro.cegar.loop import RefinementStats
        from repro.faults import FaultPlan, delay_verdict

        task = fig2_task()
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=3,
                             faults=FaultPlan((delay_verdict("spec", 30.0),)))
        scheduler = SpeculativeScheduler(task, config, None,
                                         RefinementStats())
        before = {p.pid for p in multiprocessing.active_children()}
        scheduler.ensure(task.initial_scheme(), None)
        scheduler.close()
        leftover = [p for p in multiprocessing.active_children()
                    if p.pid not in before]
        for proc in leftover:
            proc.join(timeout=10.0)
        assert not any(p.is_alive() for p in leftover)

    def test_cancelled_losers_still_warm_the_cache(self):
        """A discarded candidate's streamed solves stay in the cache."""
        from repro.formal.cache import SolveCache
        from repro.cegar.speculate import SpeculativeScheduler, scheme_digest
        from repro.cegar.loop import RefinementStats

        task = fig2_task()
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=2)
        cache = SolveCache()
        scheduler = SpeculativeScheduler(task, config, cache,
                                         RefinementStats())
        try:
            scheme = task.initial_scheme()
            scheduler.ensure(scheme, None)
            verdict = scheduler.collect(scheme)
            assert verdict is not None
            assert verdict.digest == scheme_digest(scheme)
        finally:
            scheduler.close()
        assert len(cache) > 0, "worker solves never reached the shared cache"


class TestFaultedSpeculation:
    def test_sigkilled_candidate_worker_still_converges(self):
        """kill_worker('spec') murders the first attempt; the supervised
        relaunch (attempt 1, where the fault is unarmed) must deliver
        the same final answer as the sequential walk."""
        from repro.faults import FaultPlan, kill_worker

        base = _run(fig2_task, 0)
        task = fig2_task()
        config = CegarConfig(
            max_bound=6, induction_max_k=6, seed=0, speculate=2,
            retry_backoff=0.05,
            faults=FaultPlan((kill_worker("spec", after_solves=1),)))
        spec = run_compass(task, config)
        assert _fingerprint(spec) == _fingerprint(base)

    def test_unrecoverable_worker_falls_back_inline(self):
        """Every attempt killed: speculation misses, the loop verifies
        inline, and the answer still matches the sequential walk."""
        from repro.faults import FaultPlan, kill_worker

        base = _run(fig2_task, 0)
        specs = tuple(kill_worker("spec", after_solves=1, attempt=a)
                      for a in range(4))
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=2, retry_backoff=0.05,
                             max_worker_retries=1,
                             faults=FaultPlan(specs))
        spec = run_compass(fig2_task(), config)
        assert _fingerprint(spec) == _fingerprint(base)


class TestCheckpointing:
    def test_checkpoints_record_speculation(self, tmp_path):
        from repro.cegar.checkpoint import CheckpointJournal

        task = fig2_task()
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=2)
        result = run_compass(task, config, checkpoint_dir=str(tmp_path))
        assert result.status is CegarStatus.PROVED
        latest = CheckpointJournal(str(tmp_path)).latest()
        assert latest is not None
        assert latest.speculation is not None
        assert latest.speculation["n"] == 2
        assert isinstance(latest.speculation["schemes"], list)

    def test_resume_replays_speculative_run(self, tmp_path):
        base = _run(fig2_task, 0)
        task = fig2_task()
        config = CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                             speculate=2)
        run_compass(task, config, checkpoint_dir=str(tmp_path))
        resumed = run_compass(fig2_task(), config,
                              checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.status == base.status
        assert scheme_to_dict(resumed.scheme) == scheme_to_dict(base.scheme)
        assert resumed.stats.refinement_log == base.stats.refinement_log

    def test_sequential_checkpoint_round_trips(self):
        from repro.cegar.checkpoint import CegarCheckpoint, FORMAT_VERSION
        from repro.cegar.loop import RefinementStats
        from repro.codec import dumps, from_doc, loads, to_doc

        ckpt = CegarCheckpoint(version=FORMAT_VERSION, task_name="t",
                               config_digest="d", iteration=0,
                               scheme=fig2_task().initial_scheme(),
                               stats=RefinementStats())
        back = from_doc(CegarCheckpoint, loads(dumps(to_doc(ckpt))))
        assert back.speculation is None
        assert back == ckpt


class TestStoreIntegration:
    def test_speculative_run_with_store_matches_sequential(self, tmp_path):
        base = _run(fig2_task, 0)
        spec = _run(fig2_task, 2, store_dir=str(tmp_path / "store"))
        assert _fingerprint(spec) == _fingerprint(base)
        # The store survived the speculative traffic: a fresh sequential
        # run seeded from it still agrees.
        warm = _run(fig2_task, 0, store_dir=str(tmp_path / "store"))
        assert _fingerprint(warm) == _fingerprint(base)
