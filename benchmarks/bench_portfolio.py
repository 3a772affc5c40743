"""Portfolio vs sequential model checking on the CEGAR loop.

Compares two engine configurations of ``run_compass`` on a small
Sodor core under equal budgets:

- ``sequential``  — the classic k-induction-then-BMC cascade;
- ``portfolio/1`` — BMC, then PDR, then k-induction in-process, with
  the shared cross-iteration solve cache.

Reported per configuration: verdict, proven bound, wall-clock, and for
the portfolio run the per-engine time split plus the solve-cache
hit/miss counters (nonzero hits = the k-induction base case was
answered from the frames BMC solved).

Budget: COMPASS_BENCH_BUDGET seconds of model checking per call
(default 25).
"""

import time

import pytest

from repro.cegar import CegarConfig, run_compass
from repro.contracts import make_contract_task
from repro.cores import CoreConfig, build_sodor

from _common import bench_budget, emit

TINY = CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1)
_RESULTS = {}


def _knobs(budget):
    return dict(max_bound=4, mc_time_limit=budget, total_time_limit=budget * 8,
                max_refinements=120, seed=0, induction_max_k=8)


def _run(label, budget, **extra):
    task = make_contract_task(build_sodor(TINY))
    started = time.monotonic()
    result = run_compass(task, CegarConfig(**_knobs(budget), **extra))
    wall = time.monotonic() - started
    row = {
        "status": result.status.value,
        "bound": result.bound,
        "wall": wall,
        "engine_times": {name: seconds
                         for name, seconds, _wins in result.stats.engines()},
        "cache": result.stats.cache,
    }
    _RESULTS[label] = row
    return row


@pytest.mark.parametrize("label,extra", [
    ("sequential", {}),
    ("portfolio/1", {"engine": "portfolio"}),
])
def test_portfolio_configurations(benchmark, label, extra):
    budget = bench_budget()
    row = benchmark.pedantic(
        lambda: _run(label, budget, **extra), iterations=1, rounds=1,
    )
    assert row["status"] in ("proved", "bound_reached", "real_leak")


def test_portfolio_render(benchmark):
    del benchmark
    if not _RESULTS:
        pytest.skip("configuration runs did not execute")
    lines = [
        "Portfolio vs sequential model checking (tiny Sodor, "
        f"budget {bench_budget():.0f}s/call)",
        "",
        f"{'configuration':<14} {'verdict':<14} {'bound':>5} {'wall':>8}  engines / cache",
    ]
    for label, row in _RESULTS.items():
        engines = " ".join(
            f"{name}={t:.1f}s" for name, t in sorted(row["engine_times"].items())
        )
        cache = row["cache"].row() if row["cache"] is not None else ""
        detail = "  ".join(part for part in (engines, cache) if part)
        lines.append(
            f"{label:<14} {row['status']:<14} {row['bound']:>5} "
            f"{row['wall']:>7.1f}s  {detail}"
        )
    seq = _RESULTS.get("sequential")
    por = _RESULTS.get("portfolio/1")
    if seq and por:
        lines.append("")
        lines.append(
            f"portfolio/1 vs sequential: {por['wall']:.1f}s vs "
            f"{seq['wall']:.1f}s "
            f"({por['wall'] / seq['wall'] * 100:.0f}% of cascade wall-clock)"
        )
    emit("portfolio", "\n".join(lines))
