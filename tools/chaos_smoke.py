#!/usr/bin/env python3
"""Chaos smoke: verdicts must survive injected faults.

Runs the Figure-2 CEGAR verify through the engine portfolio once clean,
then under seeded :class:`repro.faults.FaultPlan` s, and fails unless
every faulted run reaches the clean run's verdict and final scheme.
Phase 1 SIGKILL-proofs the checkpoint journal: a run whose newest
checkpoint is torn on disk must resume from the previous intact entry
and still land on the clean verdict.  Phase 2 does the same for the
persistent solve store: a verify whose store suffers a stale lock, a
torn segment tail and a corrupted manifest — all in one run — must
still match the clean verdict, and a warm rerun over the
damaged-then-recovered store must match it again.  Phase 3 fails every
segment write with ENOSPC: durability degrades, the verdict does not.

This is the recovery-path regression guard: it exercises checksummed
checkpoint fallback and resume, and the store's recovery invariants in
one short run.

Run:  PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import faults  # noqa: E402
from repro.cegar import (  # noqa: E402
    CegarConfig,
    TaintVerificationTask,
    run_compass,
)
from repro.hdl import ModuleBuilder  # noqa: E402
from repro.taint import TaintSources  # noqa: E402


def build_fig2():
    """The paper's Figure 2 mux chain (safe variant)."""
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


def make_task():
    return TaintVerificationTask(
        name="fig2",
        circuit=build_fig2(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset(
            {"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
    )


def config(**extra):
    return CegarConfig(max_bound=6, induction_max_k=6, seed=0,
                       engine="portfolio", portfolio_engines=("kind",),
                       **extra)


def main() -> int:
    failures = []

    started = time.monotonic()
    clean = run_compass(make_task(), config())
    print(f"clean run:   {clean.status.value} "
          f"({time.monotonic() - started:.1f}s)")

    # Phase 1: torn checkpoint on disk -> fallback entry -> same verdict.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        torn = faults.FaultPlan(seed=2026, specs=(
            faults.truncate_checkpoint(index=2),))
        run_compass(make_task(), config(faults=torn), checkpoint_dir=ckpt_dir)
        started = time.monotonic()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = run_compass(make_task(), config(),
                                  checkpoint_dir=ckpt_dir, resume=True)
        print(f"torn-journal resume: {resumed.status.value} "
              f"({time.monotonic() - started:.1f}s) — resumed from "
              f"iteration {resumed.stats.resumed_from}")
        if resumed.status is not clean.status:
            failures.append(f"resume after torn checkpoint diverged: "
                            f"{clean.status.value} -> {resumed.status.value}")
        if resumed.scheme != clean.scheme:
            failures.append("resumed scheme differs from the clean run")

    # Phase 2: stale lock + torn segment + corrupted manifest, all in
    # ONE verify -> same verdict; then a warm rerun over the damaged
    # store must recover (torn tail kept, manifest rebuilt) and match
    # again.
    with tempfile.TemporaryDirectory() as store_dir:
        store_plan = faults.FaultPlan(seed=2026, specs=(
            faults.stale_lock(),               # dead-owner lock at open
            faults.torn_segment(index=0),      # close-time segment, torn
            faults.corrupt_manifest(index=1),  # post-flush manifest write
        ))
        started = time.monotonic()
        stored = run_compass(make_task(),
                             config(faults=store_plan, store_dir=store_dir))
        srow = stored.stats.store.row() if stored.stats.store else "n/a"
        print(f"faulted-store run: {stored.status.value} "
              f"({time.monotonic() - started:.1f}s) — {srow}")
        if stored.status is not clean.status:
            failures.append(f"verdict changed under store faults: "
                            f"{clean.status.value} -> {stored.status.value}")
        if stored.scheme != clean.scheme:
            failures.append("final scheme changed under store faults")
        store_stats = stored.stats.store
        if store_stats is None:
            failures.append("faulted-store run did not attach the store")
        elif not store_stats.lock_takeovers:
            failures.append("planted stale lock was not taken over")
        started = time.monotonic()
        warm = run_compass(make_task(), config(store_dir=store_dir))
        wrow = warm.stats.store.row() if warm.stats.store else "n/a"
        print(f"warm-store rerun:  {warm.status.value} "
              f"({time.monotonic() - started:.1f}s) — {wrow}")
        if warm.status is not clean.status:
            failures.append(f"warm rerun over recovered store diverged: "
                            f"{clean.status.value} -> {warm.status.value}")
        wstats = warm.stats.store
        if wstats is not None:
            if not wstats.torn_segments:
                failures.append("torn segment tail was not detected on reopen")
            if not wstats.manifest_recovered:
                failures.append("corrupted manifest was not rebuilt")
            if wstats.rejected:
                failures.append("recovered store surfaced rejected entries")

    # Phase 3: a full disk (ENOSPC on every segment write) degrades
    # durability, never the verdict.
    with tempfile.TemporaryDirectory() as store_dir:
        import warnings

        enospc_plan = faults.FaultPlan(seed=2026, specs=(
            faults.enospc(index=0), faults.enospc(index=1)))
        started = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = run_compass(make_task(),
                               config(faults=enospc_plan,
                                      store_dir=store_dir))
        frow = full.stats.store.row() if full.stats.store else "n/a"
        print(f"full-disk run:     {full.status.value} "
              f"({time.monotonic() - started:.1f}s) — {frow}")
        if full.status is not clean.status:
            failures.append(f"verdict changed under ENOSPC: "
                            f"{clean.status.value} -> {full.status.value}")
        if full.stats.store is None or not full.stats.store.write_errors:
            failures.append("injected ENOSPC produced no write error")
        if not any("stay pending" in str(w.message) for w in caught):
            failures.append("ENOSPC did not surface its degradation warning")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("chaos smoke OK: faults injected, verdicts unchanged")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
