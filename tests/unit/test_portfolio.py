"""The parallel verification portfolio (repro.formal.portfolio)."""

import pytest

from repro.hdl import ModuleBuilder
from repro.formal import (
    ENGINE_NAMES,
    PortfolioConfig,
    PortfolioStatus,
    SafetyProperty,
    SolveCache,
    verify_portfolio,
)

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
    c.drive(c)  # stays at reset: bad is unreachable
    b.output("bad", c.eq(5))
    return b.build()


class TestVerdicts:
    def test_cascade_stops_at_first_definitive_verdict(self):
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(max_bound=10, time_limit=60),
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        assert res.found_cex and not res.proved
        assert res.mode == "sequential"
        assert res.winner == "bmc"
        assert [r.engine for r in res.reports] == list(ENGINE_NAMES)
        assert [r.status for r in res.reports[1:]] == ["not_run", "not_run"]
        assert all(r.row() for r in res.reports)
        wf = res.counterexample.replay(_unsafe_counter())
        assert wf.value("bad", res.counterexample.length - 1) == 1

    def test_single_engine_subset(self):
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(engines=("bmc",), max_bound=10, time_limit=60),
        )
        assert res.status is PortfolioStatus.COUNTEREXAMPLE
        assert res.winner == "bmc"

    def test_static_engine_detail_reaches_the_report(self):
        """The static engine's reason and suspect count land in its
        report, not only in the verdict record."""
        b = ModuleBuilder("gated")
        x = b.input("x", 4)
        c = b.reg("cnt", 4)
        c.drive(c ^ x)  # bad depends on the free input: ternary-unknown
        b.output("bad", c.eq(5))
        res = verify_portfolio(
            b.build(), PROP,
            PortfolioConfig(engines=("static",), max_bound=10, time_limit=60),
        )
        (report,) = res.reports
        assert report.status == "unknown"
        assert report.detail.startswith("bad is not separable")
        assert report.detail.endswith(" suspects")


class TestValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio engine"):
            verify_portfolio(_safe_machine(), PROP,
                             PortfolioConfig(engines=("bmc", "smt")))

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ValueError, match="at least one engine"):
            verify_portfolio(_safe_machine(), PROP,
                             PortfolioConfig(engines=()))


class TestBudgets:
    def test_conflict_budget_gives_deterministic_timeouts(self):
        """On a circuit whose frames need real search (fuzz seed 14),
        max_conflicts=1 starves BMC before it can reach its witness —
        a reproducible timeout with no wall-clock involved."""
        from repro.bench.fuzz import random_machine

        circ = random_machine(14)
        full = verify_portfolio(
            circ, PROP,
            PortfolioConfig(engines=("bmc",), max_bound=8),
        )
        assert full.status is PortfolioStatus.COUNTEREXAMPLE

        def budgeted():
            return verify_portfolio(
                circ, PROP,
                PortfolioConfig(engines=("bmc",), max_bound=8,
                                max_conflicts=1),
            )

        first, second = budgeted(), budgeted()
        assert first.status in (PortfolioStatus.BOUND_REACHED,
                                PortfolioStatus.UNKNOWN)
        assert second.status is first.status
        assert second.bound == first.bound

    def test_engine_deadline_honored(self):
        res = verify_portfolio(
            _unsafe_counter(bad_at=9), PROP,
            PortfolioConfig(max_bound=10,
                            engine_deadlines={"bmc": 0.0, "pdr": 0.0,
                                              "kind": 0.0}),
        )
        # zero budget for everyone: nothing definitive can come back
        assert res.status in (PortfolioStatus.BOUND_REACHED,
                              PortfolioStatus.UNKNOWN)

    def test_overall_time_limit_zero(self):
        res = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(max_bound=10, time_limit=0.0),
        )
        assert res.status is PortfolioStatus.UNKNOWN
        assert all(r.status == "not_run" for r in res.reports)


class TestCache:
    def test_whole_verdict_memoized(self):
        cache = SolveCache()
        cfg = PortfolioConfig(max_bound=10, time_limit=60)
        first = verify_portfolio(_unsafe_counter(), PROP, cfg, cache=cache)
        assert not first.cache_hit
        again = verify_portfolio(_unsafe_counter(), PROP, cfg, cache=cache)
        assert again.cache_hit and again.mode == "cache"
        assert again.status is first.status
        assert again.counterexample is not None

    def test_memo_respects_config(self):
        cache = SolveCache()
        verify_portfolio(_unsafe_counter(), PROP,
                         PortfolioConfig(max_bound=10, time_limit=60),
                         cache=cache)
        other = verify_portfolio(
            _unsafe_counter(), PROP,
            PortfolioConfig(max_bound=9, time_limit=60), cache=cache)
        assert not other.cache_hit  # different max_bound, different key

    def test_sequential_engines_share_cache_entries(self):
        """The k-induction base case reuses the frames BMC just solved
        on the same netlist."""
        cache = SolveCache()
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(engines=("bmc", "kind"),
                            max_bound=4, induction_max_k=4, time_limit=60),
            cache=cache,
        )
        assert res.status is PortfolioStatus.PROVED
        assert cache.stats.hits > 0


class TestCertification:
    def test_pdr_proof_ships_validated_certificate(self):
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(engines=("pdr",), time_limit=60),
        )
        assert res.status is PortfolioStatus.PROVED
        assert res.certificate is not None
        assert res.certificate_ok is True

    def test_certify_off_skips_validation(self):
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(engines=("pdr",), time_limit=60, certify=False),
        )
        assert res.status is PortfolioStatus.PROVED
        assert res.certificate is not None
        assert res.certificate_ok is None

    def test_memo_hit_never_skips_a_required_certificate(self):
        """A proof memoized with ``certify=False`` must not answer a
        call that asks for a checked certificate."""
        b = ModuleBuilder("wrap")
        en = b.input("en", 1)
        c = b.reg("cnt", 4)
        c.drive(b.mux(c.eq(3), b.const(0, 4), c + 1), en=en)
        b.output("bad", c.eq(9))
        wrap = b.build()
        cache = SolveCache()
        knobs = dict(engines=("bmc", "pdr"), max_bound=4, pdr_max_frames=30)
        unchecked = verify_portfolio(
            wrap, PROP, PortfolioConfig(**knobs, certify=False), cache=cache)
        assert unchecked.status is PortfolioStatus.PROVED
        assert unchecked.certificate_ok is None
        checked = verify_portfolio(
            wrap, PROP, PortfolioConfig(**knobs, certify=True), cache=cache)
        assert checked.status is PortfolioStatus.PROVED
        assert not checked.cache_hit
        assert checked.certificate_ok is True

    def test_rejected_certificate_downgrades_verdict(self, monkeypatch):
        """A PROVED verdict whose invariant fails the independent check
        must not leave the portfolio as a proof."""
        import repro.formal.portfolio as pf
        from repro.formal.certificate import CertificateCheck

        monkeypatch.setattr(
            pf, "check_certificate",
            lambda *a, **kw: CertificateCheck(False, "injected failure"))
        res = verify_portfolio(
            _safe_machine(), PROP,
            PortfolioConfig(engines=("pdr",), time_limit=60),
        )
        assert res.status is PortfolioStatus.UNKNOWN
        assert res.certificate_ok is False
        assert res.winner is None
        assert any("certificate rejected" in r.detail for r in res.reports)

