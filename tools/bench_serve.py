#!/usr/bin/env python3
"""Warm-vs-cold serving benchmark: the ``BENCH_serve.json`` trajectory.

Runs the Sodor contract-pair CEGAR verify twice against one persistent
solve store (:mod:`repro.store`): a **cold** run against an empty
store, then a **warm** run in a fresh process-equivalent (new store
handle, new cache) that may answer solver calls from the persisted
verdicts.  Records, per run:

- wall-clock seconds and the verdict (perf work must not change it),
- store counters: entries loaded/appended, hits served from disk,
- the warm run's served-from-store fraction (the serve-smoke >= 90 %
  criterion, measured here without a daemon in the loop),
- the cold/warm speedup.

Usage::

    PYTHONPATH=src python tools/bench_serve.py              # print
    PYTHONPATH=src python tools/bench_serve.py -o BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Any, Dict


def _run(store_dir: str) -> Dict[str, Any]:
    from repro.cegar import CegarConfig, run_compass
    from repro.contracts import make_contract_task
    from repro.cores import CoreConfig, core_registry

    core = core_registry()["Sodor"](
        CoreConfig(xlen=4, imem_depth=4, dmem_depth=4, secret_words=1), True)
    task = make_contract_task(core)
    config = CegarConfig(engine="portfolio", max_bound=3,
                         total_time_limit=300.0, mc_time_limit=60.0,
                         max_refinements=30, sim_trials=16, sim_depth=8,
                         seed=0, store_dir=store_dir)
    started = time.monotonic()
    result = run_compass(task, config)
    wall = time.monotonic() - started
    store = result.stats.store
    assert store is not None, "store was not attached to the run"
    served = store.hits / max(1, store.hits + result.stats.cache.misses) \
        if result.stats.cache else 0.0
    return {
        "wall_s": round(wall, 3),
        "status": result.status.value,
        "refinements": result.stats.refinements,
        "store": {
            "loaded": store.loaded,
            "appended": store.appended,
            "hits": store.hits,
            "rejected": store.rejected,
        },
        "served_from_store": round(served, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", help="write JSON here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as store_dir:
        print("cold run (empty store)...", flush=True)
        cold = _run(store_dir)
        print(f"  {cold['status']} in {cold['wall_s']}s, "
              f"{cold['store']['appended']} verdicts persisted")
        print("warm run (same store, fresh cache)...", flush=True)
        warm = _run(store_dir)
        print(f"  {warm['status']} in {warm['wall_s']}s, "
              f"{warm['store']['hits']} hits "
              f"({warm['served_from_store']:.0%} served from store)")

    doc = {
        "case": "sodor-contract",
        "config": {"xlen": 4, "imem": 4, "dmem": 4, "secret_words": 1,
                   "engine": "portfolio", "max_bound": 3, "seed": 0},
        "cold": cold,
        "warm": warm,
        "speedup": round(cold["wall_s"] / max(warm["wall_s"], 1e-9), 2),
    }
    if cold["status"] != warm["status"]:
        print(f"FAIL warm verdict {warm['status']} != cold "
              f"{cold['status']}", file=sys.stderr)
        return 1
    print(f"cold/warm speedup: {doc['speedup']}x")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    else:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
