"""Deterministic fault injection and worker supervision.

Covers :mod:`repro.faults` plus the portfolio scheduler's recovery
paths: a hard-killed engine worker is relaunched (seeded with the
cache entries it already streamed), dropped or corrupted streamed
entries never reach the shared cache, and retry exhaustion is reported
as a crash without poisoning the overall verdict.
"""

import pytest

from repro import faults
from repro.formal import (
    PortfolioConfig,
    PortfolioStatus,
    SafetyProperty,
    SolveCache,
    verify_portfolio,
)
from repro.hdl import ModuleBuilder

PROP = SafetyProperty("p", "bad")


def _unsafe_counter(bad_at=5, width=4):
    b = ModuleBuilder("unsafe")
    c = b.reg("cnt", width)
    c.drive(c + 1)
    b.output("bad", c.eq(bad_at))
    return b.build()


def _safe_machine(width=4):
    b = ModuleBuilder("safe")
    c = b.reg("cnt", width)
    c.drive(c)
    b.output("bad", c.eq(5))
    return b.build()


class TestFaultSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultSpec("meteor_strike")

    def test_worker_fault_needs_engine(self):
        with pytest.raises(ValueError, match="needs an engine"):
            faults.FaultSpec("kill_worker")

    def test_constructors_build_valid_specs(self):
        assert faults.kill_worker("bmc", after_solves=2).after == 2
        assert faults.drop_entry("pdr").kind == "drop_entry"
        assert faults.corrupt_entry("kind", index=1).after == 1
        assert faults.delay_verdict("bmc", 0.5).delay == 0.5
        assert faults.corrupt_checkpoint(3).after == 3
        assert faults.truncate_checkpoint().kind == "truncate_checkpoint"
        assert faults.kill_after_checkpoint(1).kind == "kill_after_checkpoint"

    def test_plan_counters_are_per_process(self):
        import pickle

        plan = faults.FaultPlan(specs=(faults.drop_entry("bmc", index=0),))
        assert plan.filter_entry("bmc", 0, "e0") is None
        assert plan.filter_entry("bmc", 0, "e1") == "e1"
        clone = pickle.loads(pickle.dumps(plan))
        # A fresh process starts counting from zero again.
        assert clone.filter_entry("bmc", 0, "e0") is None

    def test_faults_scoped_to_attempt(self):
        plan = faults.FaultPlan(specs=(faults.drop_entry("bmc", attempt=0),))
        assert plan.filter_entry("bmc", 0, "x") is None
        assert plan.filter_entry("bmc", 1, "x") == "x"


class TestWorkerRetry:
    def test_killed_worker_is_relaunched(self):
        """A worker killed mid-run is retried and still wins."""
        plan = faults.FaultPlan(
            specs=(faults.kill_worker("bmc", after_solves=2),))
        cache = SolveCache()
        res = verify_portfolio(
            _unsafe_counter(bad_at=6), PROP,
            PortfolioConfig(engines=("bmc",), jobs=2, max_bound=10,
                            time_limit=60, retry_backoff=0.01, faults=plan),
            cache=cache,
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        report = next(r for r in res.reports if r.engine == "bmc")
        assert report.attempts == 2
        assert report.retries == 1
        # The retry was seeded with the entries streamed before the
        # kill, so the first frames come back as hits.
        assert cache.stats.hits >= 1

    def test_retry_exhaustion_reports_crash(self):
        plan = faults.FaultPlan(specs=tuple(
            faults.kill_worker("bmc", after_solves=1, attempt=attempt)
            for attempt in range(4)
        ))
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("bmc",), jobs=2, max_bound=10,
                            time_limit=30, max_worker_retries=1,
                            retry_backoff=0.01, faults=plan),
        )
        report = next(r for r in res.reports if r.engine == "bmc")
        assert report.status == "crashed"
        assert report.attempts == 2  # original + one supervised retry
        assert f"exit {faults.KILLED_EXIT_CODE}" in report.detail
        assert res.status is PortfolioStatus.UNKNOWN

    def test_other_engines_unaffected_by_crash(self):
        """One engine crashing repeatedly must not sink the portfolio."""
        plan = faults.FaultPlan(specs=tuple(
            faults.kill_worker("bmc", after_solves=1, attempt=attempt)
            for attempt in range(4)
        ))
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(jobs=3, max_bound=10, time_limit=60,
                            max_worker_retries=1, retry_backoff=0.01,
                            faults=plan),
        )
        assert res.status is PortfolioStatus.PROVED
        assert res.winner in ("pdr", "kind")


class TestEntryFaults:
    def test_dropped_entry_only_costs_a_memo(self):
        plan = faults.FaultPlan(specs=(faults.drop_entry("bmc", index=0),))
        cache = SolveCache()
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("bmc",), jobs=2, max_bound=10,
                            time_limit=60, faults=plan),
            cache=cache,
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        assert cache.stats.rejected == 0

    def test_corrupted_entry_rejected_by_merge(self):
        plan = faults.FaultPlan(specs=(faults.corrupt_entry("bmc", index=0),))
        cache = SolveCache()
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("bmc",), jobs=2, max_bound=10,
                            time_limit=60, faults=plan),
            cache=cache,
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        assert cache.stats.rejected >= 1
        # Nothing malformed made it into the cache.
        for key in list(getattr(cache, "_entries", {})):
            assert cache.peek(key) != faults.CORRUPT_ENTRY_PAYLOAD

    def test_delayed_verdict_still_definitive(self):
        plan = faults.FaultPlan(
            specs=(faults.delay_verdict("bmc", delay=0.2),))
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("bmc",), jobs=2, max_bound=10,
                            time_limit=60, faults=plan),
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE


class TestStoreFaults:
    """Store-level fault constructors and their injection points.

    The recovery behavior itself (torn tails kept, manifests rebuilt,
    locks taken over, ENOSPC retried) lives in tests/unit/test_store.py;
    here we pin the spec surface and the plan's dispatch.
    """

    def test_constructors_build_valid_specs(self):
        assert faults.torn_segment(index=2).after == 2
        assert faults.corrupt_manifest(index=1).kind == "corrupt_manifest"
        assert faults.stale_lock().pid is None
        assert faults.stale_lock(pid=12345).pid == 12345
        assert faults.enospc(index=3).after == 3

    def test_enospc_raises_only_at_its_index(self):
        plan = faults.FaultPlan(specs=(faults.enospc(index=1),))
        plan.check_store_write(0)  # index 0 untouched
        with pytest.raises(OSError) as excinfo:
            plan.check_store_write(1)
        import errno
        assert excinfo.value.errno == errno.ENOSPC
        plan.check_store_write(2)

    def test_torn_segment_truncates_written_file(self, tmp_path):
        from repro.store.segment import read_segment, write_segment

        path = str(tmp_path / "seg-0000-000000.seg")
        write_segment(path, [b"a" * 64, b"b" * 64, b"c" * 64])
        plan = faults.FaultPlan(specs=(faults.torn_segment(index=0),))
        plan.on_segment_written(0, path)
        records, torn = read_segment(path)
        assert torn
        assert len(records) < 3

    def test_corrupt_manifest_damages_payload(self, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": 1, "generation": 0,
                                    "segments": []}))
        before = path.read_bytes()
        plan = faults.FaultPlan(specs=(faults.corrupt_manifest(index=0),))
        plan.on_manifest_written(0, str(path))
        assert path.read_bytes() != before

    def test_stale_lock_plants_dead_owner(self, tmp_path):
        from repro.store.lock import LOCK_NAME, StoreLock

        plan = faults.FaultPlan(specs=(faults.stale_lock(),))
        plan.on_store_open(str(tmp_path))
        assert (tmp_path / LOCK_NAME).exists()
        lock = StoreLock(str(tmp_path))
        lock.acquire()  # dead owner: takeover, not StoreLockedError
        assert lock.takeovers == 1
        lock.release()
