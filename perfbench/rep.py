"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` once per repetition so that no in-process cache
(the lowering LRU in ``repro.formal.bmc``, the batch-program memo)
survives from one repetition to the next, as for a ``repro verify``
user.  Prints one JSON line:

- ``ready``: ``time.monotonic()`` when the inputs were ready, so the
  parent can take set-up time from its own launch timestamp, with the
  host speed and sampling overhead over set-up (:mod:`hostspeed`);
- with ``--mode run`` or ``trace``: per-operation latency and outcome,
  the workload's wall time, CPU time and peak RSS, both as measured
  (``raw``) and in reference seconds;
- with ``--mode trace``: the per-layer report of :mod:`layers` and the
  wrapper self-check.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N --scale full
--mode run --tmp DIR``
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    import hostspeed

    sampler = hostspeed.Sampler()
    begun = time.monotonic()
    sampler.start()
    try:
        doc = run(args, sampler, begun)
    finally:
        sampler.stop()
    print(json.dumps(doc))
    return 0


def run(args, sampler, begun: float) -> dict:
    import workloads

    ops = workloads.setup(args.workload, args.seed, args.scale, args.tmp)
    ready = time.monotonic()
    doc = {"ready": ready, "setup_speed": sampler.speed(begun, ready),
           "setup_overhead_s": sampler.overhead(begun, ready)}
    if args.mode == "setup":
        return doc

    trace = None
    if args.mode == "trace":
        import layers

        trace = layers.LayerTrace()
        trace.install()
    records, spans = [], []
    cpu0 = _cpu_s()
    started = time.monotonic()
    try:
        for op in ops:
            t0 = time.monotonic()
            try:
                outcome = op.run()
            except Exception:  # one failed operation must not end the run
                outcome = {"error": traceback.format_exc(limit=3)}
            spans.append((t0, time.monotonic()))
            records.append({"key": op.key, "warm": op.warm, "request": op.request,
                            **outcome})
    finally:
        ended = time.monotonic()
        if trace is not None:
            trace.uninstall()
    cpu = _cpu_s() - cpu0
    # Operations shorter than a few sampling intervals take the whole
    # run's host speed: a handful of samples would add their own noise.
    speed = sampler.speed(started, ended)
    for record, (t0, t1) in zip(records, spans):
        record["latency_s"] = (t1 - t0 - sampler.overhead(t0, t1)) * speed
    doc.update(ops=records, wall_s=sampler.normalise(started, ended),
               cpu_s=sampler.normalise(started, ended, cpu),
               peak_rss_mb=_peak_rss_mb(), speed=speed,
               raw={"wall_s": ended - started, "cpu_s": cpu})
    if trace is not None:
        doc.update(layers=trace.report(ended - started),
                   not_restored=trace.not_restored())
    return doc


if __name__ == "__main__":
    sys.exit(main())
