"""run_compass with the engine portfolio vs the sequential cascade.

On a real (small) Sodor core, the portfolio engine must return the
same verdict as the sequential path and show cross-iteration
solve-cache reuse — k-induction answers its base case from the frames
BMC put into the shared cache.
"""

import pytest

from repro.cegar import CegarConfig, run_compass
from repro.contracts import make_contract_task
from repro.cores import CoreConfig, build_sodor

TINY = CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)
KNOBS = dict(max_bound=4, mc_time_limit=25, total_time_limit=200,
             max_refinements=120, seed=0, induction_max_k=8)


@pytest.fixture(scope="module")
def both_runs():
    task = make_contract_task(build_sodor(TINY))
    seq = run_compass(task, CegarConfig(**KNOBS))
    task = make_contract_task(build_sodor(TINY))
    por = run_compass(task, CegarConfig(**KNOBS, engine="portfolio"))
    return seq, por


class TestPortfolioAcceptance:
    def test_verdict_matches_sequential(self, both_runs):
        seq, por = both_runs
        assert por.status is seq.status
        assert por.secure == seq.secure

    def test_cache_hits_across_engines(self, both_runs):
        _, por = both_runs
        stats = por.stats
        assert stats.counters["portfolio.calls"] >= 1
        assert stats.cache is not None
        # the loop eliminated counterexamples before the final call, so
        # these hits happened on a CEGAR iteration past the first
        assert stats.counterexamples_eliminated >= 1
        assert stats.cache.hits > 0
        assert stats.cache.stores > 0

    def test_engine_times_recorded(self, both_runs):
        _, por = both_runs
        engine_times = {name: seconds
                        for name, seconds, _wins in por.stats.engines()}
        assert engine_times
        assert all(t >= 0.0 for t in engine_times.values())
        assert por.stats.portfolio_rows()

    def test_report_includes_portfolio_section(self, both_runs):
        from repro.cegar.report import render_report

        _, por = both_runs
        text = render_report(por)
        assert "## Verification portfolio" in text
        assert "Solve cache:" in text


def test_init_assumption_is_not_a_correlation_alert():
    """A mux that routes the secret only when ``r1 != r2``, with the
    init assumption ``r1 == r2``: secure.  PDR ignores the assumption
    while searching, so its counterexample must not reach the loop."""
    from repro.cegar import CegarStatus, TaintVerificationTask
    from repro.hdl import ModuleBuilder
    from repro.taint import TaintSources

    b = ModuleBuilder("eqinit")
    with b.scope("m"):
        secret = b.reg("secret", 4)
        secret.drive(secret)
        pub = b.reg("pub", 4)
        pub.drive(pub)
        r1 = b.reg("r1", 4)
        r1.drive(r1)
        r2 = b.reg("r2", 4)
        r2.drive(r2)
        sel = b.reg("sel", 1)
        sel.drive(r1.ne(r2))
        out = b.named("o", b.mux(sel, secret, pub))
    b.output("eq", r1.eq(r2))
    b.output("sink", out)
    task = TaintVerificationTask(
        name="eqinit", circuit=b.build(),
        sources=TaintSources(registers={"m.secret": -1}), sinks=("sink",),
        init_assumption_outputs=("eq",),
        symbolic_registers=frozenset({"m.secret", "m.pub", "m.r1", "m.r2"}),
    )
    result = run_compass(task, CegarConfig(engine="portfolio", max_bound=4,
                                           seed=0))
    assert result.status is not CegarStatus.CORRELATION_ALERT
    assert result.status is CegarStatus.PROVED
