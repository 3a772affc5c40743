"""The persistent solve store (repro.store): recovery and adapters."""

import json
import os
import pickle
import threading

import pytest

from repro.formal.cache import CachedVerdict
from repro.store import (
    SegmentError,
    SolveStore,
    StoreError,
    StoreLock,
    StoreLockedError,
    plant_stale_lock,
    read_segment,
    write_segment,
)
from repro.store.segment import MAGIC, parse_segment_name, segment_name
from repro.store.store import _encode_entry


def _verdict(status="unsat", bound=3):
    return CachedVerdict(status=status, bound=bound)


def _fill(store, n=5, prefix="k"):
    for i in range(n):
        store.append(f"{prefix}{i}", _verdict(bound=i))


class TestSegments:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.seg")
        records = [b"alpha", b"", b"\x00" * 100]
        write_segment(path, records)
        read, torn = read_segment(path)
        assert read == records and not torn

    def test_torn_tail_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "s.seg")
        write_segment(path, [b"first", b"second", b"third"])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)  # rip into the last record
        read, torn = read_segment(path)
        assert read == [b"first", b"second"] and torn

    def test_flipped_byte_detected(self, tmp_path):
        path = str(tmp_path / "s.seg")
        write_segment(path, [b"payload-one", b"payload-two"])
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"\xff")
        read, torn = read_segment(path)
        assert read == [b"payload-one"] and torn

    def test_bad_magic_is_an_error(self, tmp_path):
        (tmp_path / "s.seg").write_bytes(b"not a segment at all")
        with pytest.raises(SegmentError, match="magic"):
            read_segment(str(tmp_path / "s.seg"))

    def test_name_round_trip(self):
        assert parse_segment_name(segment_name(3, 17)) == (3, 17)
        with pytest.raises(ValueError):
            parse_segment_name("manifest.json")


class TestLock:
    def test_exclusive_between_live_holders(self, tmp_path):
        first = StoreLock(str(tmp_path))
        first.acquire()
        second = StoreLock(str(tmp_path))
        with pytest.raises(StoreLockedError, match="locked by live"):
            second.acquire()
        first.release()
        second.acquire()
        second.release()

    def test_dead_owner_is_taken_over(self, tmp_path):
        plant_stale_lock(str(tmp_path))
        lock = StoreLock(str(tmp_path))
        lock.acquire()
        assert lock.takeovers == 1
        lock.release()

    def test_unreadable_lock_is_taken_over(self, tmp_path):
        (tmp_path / "store.lock").write_text("not json")
        lock = StoreLock(str(tmp_path))
        lock.acquire()
        assert lock.takeovers == 1
        lock.release()

    def test_racing_takeover_yields_exactly_one_holder(self, tmp_path):
        """Two contenders both observing the same dead owner must not
        both end up holding the lock (the guard serializes takeover)."""
        for _ in range(10):
            plant_stale_lock(str(tmp_path))
            barrier = threading.Barrier(2)
            outcomes = []

            def contend():
                lock = StoreLock(str(tmp_path))
                barrier.wait()
                try:
                    lock.acquire()
                    outcomes.append(("held", lock))
                except StoreLockedError:
                    outcomes.append(("locked", lock))

            threads = [threading.Thread(target=contend) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert sorted(kind for kind, _lock in outcomes) == [
                "held", "locked"]
            for kind, lock in outcomes:
                if kind == "held":
                    lock.release()


class TestStoreRoundTrip:
    def test_entries_survive_reopen(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            _fill(store, 5)
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 5
            assert store.stats.rejected == 0
            assert store.get("k3").bound == 3

    def test_later_appends_win(self, tmp_path):
        with SolveStore(str(tmp_path), flush_every=1) as store:
            store.append("k", _verdict(bound=1))
            store.append("k", _verdict(bound=2))
        with SolveStore(str(tmp_path)) as store:
            assert store.get("k").bound == 2

    def test_malformed_append_is_rejected(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            assert not store.append("", _verdict())
            assert not store.append("k", "not a verdict")
            assert store.stats.rejected == 2
            assert len(store) == 0

    def test_hostile_record_on_disk_is_dropped(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            _fill(store, 2)
        # Append a record that is perfectly valid JSON of the wrong
        # shape: load must validate and drop it, not trust it.
        name = segment_name(0, 99)
        write_segment(str(tmp_path / name),
                      [json.dumps({"key": "key", "status": 42,
                                   "bound": "nope", "detail": {}}).encode()])
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 2
            assert store.stats.rejected == 1
            assert "key" not in store

    def test_pickle_record_is_rejected_not_executed(self, tmp_path):
        """Segment payloads are attacker-reachable bytes, so the store
        must never unpickle them: a tampered record is *rejected*, it
        does not run code at open."""
        marker = tmp_path / "owned"
        store_dir = str(tmp_path / "store")

        class Exploit:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        with SolveStore(store_dir) as store:
            _fill(store, 1)
        write_segment(os.path.join(store_dir, segment_name(0, 99)),
                      [pickle.dumps(Exploit())])
        with SolveStore(store_dir) as store:
            assert store.stats.loaded == 1
            assert store.stats.rejected == 1
        assert not marker.exists()

    def test_counterexample_round_trips(self, tmp_path):
        from repro.formal.counterexample import Counterexample

        cex = Counterexample(2, [{"a": 1}, {"a": 0}], {"r": 3}, "bad")
        with SolveStore(str(tmp_path)) as store:
            store.append("cx", CachedVerdict(
                "sat", bound=2, counterexample=cex,
                detail={"winner": "bmc"}))
        with SolveStore(str(tmp_path)) as store:
            got = store.get("cx")
            assert got.status == "sat" and got.bound == 2
            assert got.detail == {"winner": "bmc"}
            assert got.counterexample.inputs == cex.inputs
            assert got.counterexample.initial_state == {"r": 3}
            assert got.counterexample.bad_signal == "bad"

    def test_read_only_open_needs_no_lock(self, tmp_path):
        with SolveStore(str(tmp_path)) as writer:
            _fill(writer, 3)
            writer.flush()
            reader = SolveStore(str(tmp_path), writable=False)
            assert reader.stats.loaded == 3
            with pytest.raises(StoreError, match="read-only"):
                reader.append("x", _verdict())

    def test_live_lock_blocks_second_writer(self, tmp_path):
        with SolveStore(str(tmp_path)):
            with pytest.raises(StoreLockedError):
                SolveStore(str(tmp_path))

    def test_newer_format_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": 99, "generation": 0, "segments": []}))
        with pytest.raises(StoreError, match="newer"):
            SolveStore(str(tmp_path))


class TestStoreRecovery:
    def test_torn_segment_tail_recovered(self, tmp_path):
        with SolveStore(str(tmp_path), flush_every=2) as store:
            _fill(store, 4)  # two segments of two entries
        segs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".seg"))
        last = tmp_path / segs[-1]
        size = os.path.getsize(last)
        with open(last, "r+b") as handle:
            handle.truncate(max(len(MAGIC), size - 8))
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.torn_segments == 1
            assert 2 <= store.stats.loaded < 4

    def test_corrupt_manifest_rebuilt_from_disk(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            _fill(store, 3)
        (tmp_path / "manifest.json").write_bytes(b"\xff\xfegarbage")
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.manifest_recovered == 1
            assert store.stats.loaded == 3
        # ... and the rebuilt manifest is intact again.
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["generation"] == 0

    def test_missing_manifest_adopts_segments(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            _fill(store, 3)
        os.unlink(tmp_path / "manifest.json")
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 3

    def test_unlisted_segment_adopted(self, tmp_path):
        """A crash between segment write and manifest update: the
        segment exists on disk but the manifest does not list it."""
        with SolveStore(str(tmp_path)) as store:
            _fill(store, 2)
        write_segment(str(tmp_path / segment_name(0, 50)),
                      [_encode_entry("extra", _verdict(bound=9))])
        with SolveStore(str(tmp_path)) as store:
            assert store.get("extra").bound == 9

    def test_stale_lock_taken_over(self, tmp_path):
        plant_stale_lock(str(tmp_path))
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.lock_takeovers == 1

    def test_orphan_tmp_files_swept(self, tmp_path):
        orphan = tmp_path / ".tmp.orphan123"
        orphan.write_text("leftover")
        old = orphan.stat().st_mtime - 7200
        os.utime(orphan, (old, old))
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.orphans_swept == 1
        assert not orphan.exists()


class TestCompaction:
    def test_compact_folds_to_one_segment(self, tmp_path):
        with SolveStore(str(tmp_path), flush_every=1) as store:
            _fill(store, 6)
            assert len(store._segments) == 6
            assert store.compact()
            assert len(store._segments) == 1
            assert store.generation == 1
        segs = [p for p in os.listdir(tmp_path) if p.endswith(".seg")]
        assert segs == [segment_name(1, 0)]
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 6

    def test_close_auto_compacts_past_threshold(self, tmp_path):
        with SolveStore(str(tmp_path), flush_every=1,
                        compact_threshold=3) as store:
            _fill(store, 5)
        with SolveStore(str(tmp_path)) as store:
            assert store.generation == 1
            assert store.stats.loaded == 5

    def test_old_generation_leftovers_removed(self, tmp_path):
        """Interrupted compaction: old-generation segments outlive the
        manifest flip; the next open deletes the redundant ones."""
        with SolveStore(str(tmp_path), flush_every=1) as store:
            _fill(store, 3)
            store.compact()
        # Re-plant an old-generation leftover as the interruption would.
        write_segment(str(tmp_path / segment_name(0, 7)),
                      [_encode_entry("old", _verdict())])
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.stale_removed == 1
            assert "old" not in store
            assert store.stats.loaded == 3


class TestFaultInjection:
    def test_enospc_keeps_entries_pending(self, tmp_path):
        from repro.faults import FaultPlan, enospc

        plan = FaultPlan((enospc(index=0),))
        with pytest.warns(UserWarning, match="stay pending"):
            with SolveStore(str(tmp_path), faults=plan,
                            flush_every=2) as store:
                _fill(store, 2)      # first flush fails with ENOSPC
                assert store.stats.write_errors == 1
                assert store.get("k1") is not None  # still answerable
        # close() retried the flush (write attempt 1 is clean).
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 2

    def test_torn_segment_fault_round_trips(self, tmp_path):
        from repro.faults import FaultPlan, torn_segment

        plan = FaultPlan((torn_segment(index=0),))
        with SolveStore(str(tmp_path), faults=plan, flush_every=10) as store:
            _fill(store, 6)
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.torn_segments == 1
            assert store.stats.loaded < 6
            assert store.stats.rejected == 0

    def test_corrupt_manifest_fault_round_trips(self, tmp_path):
        from repro.faults import FaultPlan, corrupt_manifest

        # Index 1: the manifest write that follows the first flush
        # (index 0 is the open-time normalization write).
        plan = FaultPlan((corrupt_manifest(index=1),))
        with SolveStore(str(tmp_path), faults=plan) as store:
            _fill(store, 3)
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.manifest_recovered == 1
            assert store.stats.loaded == 3

    def test_stale_lock_fault_is_taken_over(self, tmp_path):
        from repro.faults import FaultPlan, stale_lock

        plan = FaultPlan((stale_lock(),))
        with SolveStore(str(tmp_path), faults=plan) as store:
            assert store.stats.lock_takeovers == 1


class TestStoreBackedCache:
    def test_write_through_and_persistent_hits(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            cache = store.cache()
            cache.put("q1", _verdict(bound=4))
            assert store.stats.appended == 1
            assert cache.get("q1") is not None
            # A hit on an entry born this run is not a *persistent* hit.
            assert store.stats.hits == 0
        with SolveStore(str(tmp_path)) as store:
            cache = store.cache()
            assert cache.get("q1").bound == 4
            assert store.stats.hits == 1
            assert cache.stats.hits == 1

    def test_merge_entries_writes_through(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            cache = store.cache()
            cache.merge_entries({"a": _verdict(), "b": _verdict()})
            assert store.stats.appended == 2
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == 2

    def test_preload_does_not_count_as_stores(self, tmp_path):
        with SolveStore(str(tmp_path)) as store:
            store.cache().put("x", _verdict())
        with SolveStore(str(tmp_path)) as store:
            cache = store.cache()
            assert cache.stats.stores == 0
            assert len(cache) == 1

    def test_portfolio_served_from_store(self, tmp_path):
        from repro.formal import (PortfolioConfig, PortfolioStatus,
                                  verify_portfolio)
        from repro.formal.properties import SafetyProperty
        from repro.hdl import ModuleBuilder

        b = ModuleBuilder("safe")
        c = b.reg("cnt", 4)
        c.drive(c)
        b.output("bad", c.eq(5))
        circuit = b.build()
        prop = SafetyProperty("p", "bad")
        config = PortfolioConfig(max_bound=6, time_limit=60)

        with SolveStore(str(tmp_path)) as store:
            cold = verify_portfolio(circuit, prop, config,
                                    cache=store.cache())
            assert cold.status is PortfolioStatus.PROVED
            assert store.stats.appended > 0
        with SolveStore(str(tmp_path)) as store:
            cache = store.cache()
            warm = verify_portfolio(circuit, prop, config, cache=cache)
            assert warm.status is PortfolioStatus.PROVED
            assert warm.cache_hit
            assert store.stats.hits >= 1
            assert cache.stats.misses == 0


class TestConcurrentStoreAccess:
    def test_concurrent_put_and_flush_lose_nothing(self, tmp_path):
        """One thread flushes while writer threads put through the
        shared cache: the store's internal mutex must keep the pending
        buffer consistent and every entry durable."""
        writers, per_writer = 4, 200
        with SolveStore(str(tmp_path), flush_every=10**9) as store:
            cache = store.cache()
            errors = []

            def write(base):
                try:
                    for i in range(per_writer):
                        cache.put(f"w{base}-{i}", _verdict(bound=i))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def flush():
                try:
                    for _ in range(50):
                        store.flush()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(b,))
                       for b in range(writers)]
            threads.append(threading.Thread(target=flush))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
        with SolveStore(str(tmp_path)) as store:
            assert store.stats.loaded == writers * per_writer
            assert store.stats.rejected == 0


def _guarded_task():
    """A mux whose select ``r1 != r2`` stays 0: the two registers add
    the same input each cycle.  Secure, proved by the portfolio."""
    from repro.cegar.loop import TaintVerificationTask
    from repro.hdl import ModuleBuilder
    from repro.taint.instrument import TaintSources

    b = ModuleBuilder("guarded")
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pub = b.reg("pub", 4)
        pub.drive(pub)
        inc = b.input("inc", 4)
        r1 = b.reg("r1", 4)
        r1.drive(r1 + inc)
        r2 = b.reg("r2", 4)
        r2.drive(r2 + inc)
        sel = b.reg("sel", 1)
        sel.drive(r1.ne(r2))
        out = b.named("o", b.mux(sel, secret, pub))
    b.output("sink", out)
    return TaintVerificationTask(
        name="guarded", circuit=b.build(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",), symbolic_registers=frozenset({"m.secret", "m.pub"}),
    )


class TestRunCompassStoreDir:
    def test_warm_rerun_is_served_from_disk(self, tmp_path):
        """A rerun on a reopened store reaches the cold run's verdict,
        scheme and refinements, answering >= 90% of its solves from the
        verdicts the cold run persisted."""
        from repro.cegar import CegarConfig, CegarStatus, run_compass
        from repro.taint.scheme_io import scheme_to_dict

        config = CegarConfig(engine="portfolio", max_bound=4, seed=0,
                             store_dir=str(tmp_path))
        cold = run_compass(_guarded_task(), config)
        assert cold.status is CegarStatus.PROVED
        assert cold.stats.store.appended > 0
        warm = run_compass(_guarded_task(), config)
        assert warm.status is cold.status
        assert scheme_to_dict(warm.scheme) == scheme_to_dict(cold.scheme)
        assert warm.stats.refinement_log == cold.stats.refinement_log
        hits, misses = warm.stats.store.hits, warm.stats.cache.misses
        assert hits > 0
        assert hits / (hits + misses) >= 0.9

    def test_graceful_fallback_when_locked(self, tmp_path):
        """A held store must not fail the verify — warn and run."""
        from repro.cegar import CegarConfig, run_compass
        from repro.cegar.loop import TaintVerificationTask
        from repro.hdl import ModuleBuilder
        from repro.taint.instrument import TaintSources

        b = ModuleBuilder("tiny")
        s = b.reg("secret", 2)
        s.drive(s)
        b.output("out", s.eq(0))
        circuit = b.build()
        task = TaintVerificationTask(
            name="tiny", circuit=circuit,
            sources=TaintSources(registers={"secret": -1}),
            sinks=("out",), symbolic_registers=frozenset({"secret"}),
        )
        holder = SolveStore(str(tmp_path))
        try:
            config = CegarConfig(engine="sequential", max_bound=3,
                                 mc_time_limit=20.0, sim_prefilter=False,
                                 exact_validation=False, lint_on_entry=False,
                                 max_refinements=4, max_counterexamples=4,
                                 store_dir=str(tmp_path))
            with pytest.warns(UserWarning, match="in-memory cache"):
                result = run_compass(task, config)
            assert result.stats.store is None
        finally:
            holder.close()
