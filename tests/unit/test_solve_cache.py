"""The content-addressed solve cache (repro.formal.cache)."""

import pytest

from repro.hdl import ModuleBuilder
from repro.hdl.lowering import lower_to_gates
from repro.hdl.serialize import circuit_from_dict, circuit_to_dict
from repro.formal import (
    CachedVerdict,
    SafetyProperty,
    SolveCache,
    circuit_fingerprint,
    solve_key,
)
from repro.formal.cache import property_fingerprint


def _counter(bad_at=5, width=4, name="counter"):
    b = ModuleBuilder(name)
    c = b.reg("cnt", width)
    c.drive(c + 1)
    b.output("bad", c.eq(bad_at))
    return b.build()


PROP = SafetyProperty("p", "bad")


class TestFingerprints:
    def test_fingerprint_stable_across_serialize_roundtrip(self):
        circ = _counter()
        fp = circuit_fingerprint(circ)
        back = circuit_from_dict(circuit_to_dict(circ))
        assert circuit_fingerprint(back) == fp

    def test_key_stable_across_serialize_roundtrip(self):
        circ = _counter()
        back = circuit_from_dict(circuit_to_dict(circ))
        params = {"depth": 3, "init": None}
        assert solve_key(circ, PROP, "bmc-frame", params) == \
            solve_key(back, PROP, "bmc-frame", params)

    def test_fingerprint_invalidated_by_netlist_change(self):
        assert circuit_fingerprint(_counter(bad_at=5)) != \
            circuit_fingerprint(_counter(bad_at=6))

    def test_fingerprint_of_lowered_matches_inner_circuit(self):
        lowered = lower_to_gates(_counter())
        assert circuit_fingerprint(lowered) == \
            circuit_fingerprint(lowered.circuit)

    def test_key_distinguishes_property(self):
        circ = _counter()
        other = SafetyProperty("p", "bad", assumptions=("en",))
        assert solve_key(circ, PROP, "bmc-frame", 1) != \
            solve_key(circ, other, "bmc-frame", 1)

    def test_key_distinguishes_question_and_params(self):
        circ = _counter()
        assert solve_key(circ, PROP, "bmc-frame", 1) != \
            solve_key(circ, PROP, "bmc-frame", 2)
        assert solve_key(circ, PROP, "bmc-frame", 1) != \
            solve_key(circ, PROP, "kind-step", 1)

    def test_property_fingerprint_order_independent(self):
        a = SafetyProperty("p", "bad", assumptions=("x", "y"))
        b = SafetyProperty("p", "bad", assumptions=("y", "x"))
        assert property_fingerprint(a) == property_fingerprint(b)


class TestAccounting:
    def test_hit_miss_counters(self):
        cache = SolveCache()
        assert cache.get("k1") is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put("k1", CachedVerdict("unsat", bound=3))
        assert cache.stats.stores == 1
        entry = cache.get("k1")
        assert entry is not None and entry.status == "unsat" and entry.bound == 3
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_peek_does_not_touch_counters(self):
        cache = SolveCache()
        cache.put("k", CachedVerdict("sat"))
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        cache.put("a", CachedVerdict("unsat"))
        cache.put("b", CachedVerdict("unsat"))
        assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
        cache.put("c", CachedVerdict("unsat"))
        assert cache.stats.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_merge_entries_only_adds_absent(self):
        cache = SolveCache()
        mine = CachedVerdict("unsat", bound=1)
        cache.put("k", mine)
        cache.merge_entries({"k": CachedVerdict("sat"), "k2": CachedVerdict("unsat")})
        assert cache.peek("k") is mine  # existing entry wins
        assert cache.peek("k2") is not None
        assert cache.stats.stores == 2  # original put + adopted k2

    def test_stats_merge_and_row(self):
        from repro.formal import CacheStats

        a = CacheStats(hits=3, misses=2, stores=3, evictions=2)
        assert "3 hits" in a.row()

    def test_stats_row_mentions_rejections(self):
        from repro.formal import CacheStats

        quiet = CacheStats(hits=1, misses=1)
        assert "rejected" not in quiet.row()
        noisy = CacheStats(hits=1, misses=1, rejected=2)
        assert "2 rejected" in noisy.row()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SolveCache(max_entries=0)


class TestMergeValidation:
    """Entries from queues and checkpoint files are untrusted input."""

    def test_valid_entry_contract(self):
        from repro.formal import valid_entry

        good = CachedVerdict("unsat", bound=3)
        assert valid_entry("k", good)
        assert not valid_entry("", good)                  # empty key
        assert not valid_entry(42, good)                  # non-str key
        assert not valid_entry("k", "not-a-verdict")      # wrong payload type
        assert not valid_entry("k", CachedVerdict(""))    # empty status
        assert not valid_entry("k", CachedVerdict(None))  # non-str status
        bad_bound = CachedVerdict("unsat")
        bad_bound.bound = "3"
        assert not valid_entry("k", bad_bound)
        bool_bound = CachedVerdict("unsat")
        bool_bound.bound = True
        assert not valid_entry("k", bool_bound)
        bad_cex = CachedVerdict("sat")
        bad_cex.counterexample = {"cycles": 3}
        assert not valid_entry("k", bad_cex)
        bad_detail = CachedVerdict("unsat")
        bad_detail.detail = "oops"
        assert not valid_entry("k", bad_detail)

    def test_merge_rejects_non_dict_container(self):
        cache = SolveCache()
        cache.merge_entries(["not", "a", "dict"])
        assert len(cache) == 0
        assert cache.stats.rejected == 1

    def test_merge_drops_malformed_keeps_valid(self):
        cache = SolveCache()
        cache.merge_entries({
            "good": CachedVerdict("unsat", bound=2),
            "corrupt": "\x00corrupt-cache-entry\x00",
            17: CachedVerdict("unsat"),
        })
        assert cache.peek("good") is not None
        assert len(cache) == 1
        assert cache.stats.rejected == 2
        assert cache.stats.stores == 1

    def test_merge_of_clean_snapshot_rejects_nothing(self):
        source = SolveCache()
        source.put("a", CachedVerdict("unsat", bound=1))
        source.put("b", CachedVerdict("sat", bound=2))
        cache = SolveCache()
        cache.merge_entries(source.snapshot_entries())
        assert len(cache) == 2
        assert cache.stats.rejected == 0


class TestEngineIntegration:
    def test_bmc_frames_reused_on_identical_netlist(self):
        from repro.formal import BmcStatus, bounded_model_check

        circ = _counter(bad_at=9, width=4)
        cache = SolveCache()
        first = bounded_model_check(circ, PROP, max_bound=4, cache=cache)
        assert first.status is BmcStatus.BOUND_REACHED
        solved_before = cache.stats.misses
        again = bounded_model_check(circ, PROP, max_bound=4, cache=cache)
        assert again.status is BmcStatus.BOUND_REACHED
        assert again.bound == first.bound
        assert again.frames_solved == 0          # everything from cache
        assert cache.stats.hits >= 5             # depths 0..4
        assert cache.stats.misses == solved_before

    def test_cached_violation_replays(self):
        from repro.formal import BmcStatus, bounded_model_check

        circ = _counter(bad_at=3, width=4)
        cache = SolveCache()
        first = bounded_model_check(circ, PROP, max_bound=6, cache=cache)
        assert first.status is BmcStatus.COUNTEREXAMPLE
        again = bounded_model_check(circ, PROP, max_bound=6, cache=cache)
        assert again.status is BmcStatus.COUNTEREXAMPLE
        assert again.frames_solved == 0
        wf = again.counterexample.replay(circ)
        assert wf.value("bad", again.counterexample.length - 1) == 1

    def test_netlist_change_invalidates_frames(self):
        from repro.formal import bounded_model_check

        cache = SolveCache()
        bounded_model_check(_counter(bad_at=9), PROP, max_bound=3, cache=cache)
        hits_before = cache.stats.hits
        bounded_model_check(_counter(bad_at=10), PROP, max_bound=3, cache=cache)
        assert cache.stats.hits == hits_before  # nothing carried over

    def test_kind_base_case_hits_bmc_frames(self):
        from repro.formal import bounded_model_check, k_induction

        circ = _counter(bad_at=9, width=4)
        cache = SolveCache()
        bounded_model_check(circ, PROP, max_bound=5, cache=cache)
        hits_before = cache.stats.hits
        k_induction(circ, PROP, max_k=4, cache=cache)
        assert cache.stats.hits > hits_before
