"""Benchmark of whole ``run_compass`` workloads, attributed per layer.

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) with
fresh store and checkpoint directories.  The run prints the environment,
every operation's verdict against ``perfbench/expected.json`` with its
(ungated) trajectory, every metric by name and unit, and as its last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

- ``--trace 0`` (timed): a few set-up-only interpreters for ``setup_s``,
  then repetitions until ``--seconds`` is used up (at least one); the
  manifest's ``end_to_end`` metrics are medians over them, with times
  in reference seconds (``hostspeed.py``).
- ``--trace 1``: one plain repetition and one with the wrappers of
  ``layers.py`` installed; reports the manifest's ``per_layer`` metrics
  and self-checks the wrappers.

The manifest, ``BENCHMARK.json`` at the repository root, is the one list
of workloads and of metric names and units.

Usage::

    python3 perfbench/run.py --workload sodor-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload verify-stream --seed 1 --trace 1
    python3 perfbench/run.py --workload all --quick        # every workload, reduced

Run from the repository root.  Exits 2 without a result when the
program's sources (``src/repro``) are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    MANIFEST = json.load(_handle)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
UNITS = {m["name"]: m["unit"]
         for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

EXPECTED = os.path.join(HERE, "expected.json")
SCRATCH = os.path.join(ROOT, ".perfbench")
#: Every run, repetitions included, ends well inside three minutes.
RUN_BUDGET_S = 170.0
SETUP_SPAWNS = {"full": 5, "quick": 1}


class Rep:
    """What one child interpreter reported (or why it reported nothing)."""

    def __init__(self, doc: Optional[dict], spawned: float, error: str = ""):
        self.doc = doc or {}
        self.error = error
        self.setup_s = None
        if "ready" in self.doc:
            # Reference seconds from launch, the interpreter's own start-up
            # included, at the host speed sampled during set-up.
            self.setup_s = ((self.doc["ready"] - spawned - self.doc["setup_overhead_s"])
                            * self.doc["setup_speed"])
        self.total_s = time.monotonic() - spawned

    @property
    def ops(self) -> List[dict]:
        return self.doc.get("ops", [])


def _spawn(args, mode: str, index: int, deadline: float) -> Rep:
    tmp = os.path.join(SCRATCH, f"tmp-{os.getpid()}-{index}")
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", "quick" if args.quick else "full",
           "--mode", mode, "--tmp", tmp]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Rep(None, spawned, "timed out")
    finally:
        _kill_group(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        return Rep(None, spawned, f"exit {proc.returncode}: {err.strip()[-800:]}")
    try:
        return Rep(json.loads(out.strip().splitlines()[-1]), spawned)
    except (ValueError, IndexError):
        return Rep(None, spawned, f"no result line: {err.strip()[-800:]}")


def _kill_group(pgid: int) -> None:
    """Stop anything the repetition left behind (a stray engine worker)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def percentile(values: List[float], p: int) -> float:
    """Linearly interpolated percentile.

    Interpolating keeps a percentile over few samples from jumping
    whenever two of them swap places.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def grade(reps: List[Rep], expected: Dict[str, dict]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): verdict and bound gate per operation."""
    attempted = failed = 0
    problems: List[str] = []
    for rep in reps:
        if rep.error:
            attempted += 1
            failed += 1
            problems.append(f"repetition failed: {rep.error}")
            continue
        for op in rep.ops:
            attempted += 1
            want = expected[op["key"]]
            if "error" in op:
                problem = f"raised {op['error'].strip().splitlines()[-1]}"
            elif op["verdict"] != want["verdict"]:
                problem = f"verdict {op['verdict']}, expected {want['verdict']}"
            elif want["bound"] is not None and op["bound"] != want["bound"]:
                problem = f"bound {op['bound']}, expected {want['bound']}"
            else:
                continue
            failed += 1
            problems.append(f"{op['key']}: {problem}")
    return attempted, failed, problems


def describe_ops(reps: List[Rep]) -> List[str]:
    """Verdicts and ungated trajectory per operation kind."""
    groups: Dict[Tuple[str, bool], List[dict]] = {}
    for rep in reps:
        for op in rep.ops:
            groups.setdefault((op["key"], op["warm"]), []).append(op)
    lines = []
    for (key, warm), ops in sorted(groups.items()):
        verdicts = sorted({f"{op.get('verdict', 'error')}@{op.get('bound')}" for op in ops})
        trajectories = sorted({op.get("trajectory", "-") for op in ops})
        line = (f"op {key}{' (warm)' if warm else ''}: n={len(ops)} "
                f"verdicts={','.join(verdicts)} "
                f"p50={statistics.median(op['latency_s'] for op in ops):.3f}s")
        if len(trajectories) == 1:
            line += f" trajectory={trajectories[0]}"
            first = ops[0]
            if "refinements" in first:
                line += (f" refinements={first['refinements']}"
                         f" cex_eliminated={first['cex_eliminated']}")
        else:
            line += f" trajectories={len(trajectories)} distinct"
        lines.append(line)
    return lines


def requests(rep: Rep) -> List[Tuple[float, bool]]:
    """(latency in ms, warm) per user request of one repetition."""
    grouped: Dict[object, Tuple[float, bool]] = {}
    for n, op in enumerate(rep.ops):
        key = op["request"] or n
        latency, warm = grouped.get(key, (0.0, op["warm"]))
        grouped[key] = (latency + op["latency_s"] * 1e3, warm)
    return list(grouped.values())


def timed_metrics(setups: List[float], reps: List[Rep]) -> Dict[str, float]:
    done = [rep for rep in reps if not rep.error]
    served = [req for rep in done for req in requests(rep)]
    latencies = [latency for latency, _warm in served]
    cold = [latency for latency, warm in served if not warm]
    # Only verify-stream revisits tasks; elsewhere every request is a
    # first visit, so warm falls back to the cold latency.
    warm = [latency for latency, warm in served if warm] or cold
    return {
        "wall_s": statistics.median(rep.doc["wall_s"] for rep in done),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(rep.doc["cpu_s"] for rep in done),
        "peak_rss_mb": statistics.median(rep.doc["peak_rss_mb"] for rep in done),
        "verify_p50_ms": percentile(latencies, 50),
        "verify_p90_ms": percentile(latencies, 90),
        "cold_verify_p50_ms": percentile(cold, 50),
        "warm_verify_p50_ms": percentile(warm, 50),
    }


def run_timed(args, deadline: float) -> Tuple[List[Rep], Dict[str, float], List[str]]:
    scale = "quick" if args.quick else "full"
    setups: List[float] = []
    index = 0
    for _ in range(SETUP_SPAWNS[scale]):
        rep = _spawn(args, "setup", index, deadline)
        index += 1
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
    reps: List[Rep] = []
    started = time.monotonic()
    while True:
        rep = _spawn(args, "run", index, deadline)
        index += 1
        reps.append(rep)
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        longest = max(r.total_s for r in reps)
        now = time.monotonic()
        if now - started + longest > args.seconds or now + longest > deadline:
            break
    notes = [f"repetitions={len(reps)} setups={len(setups)}"]
    if not setups or all(rep.error for rep in reps):
        return reps, {}, notes
    done = [rep for rep in reps if not rep.error]
    notes.append("as measured: wall_s {:.3f} cpu_s {:.3f} at host speed {:.3f} "
                 "(medians; metrics are in reference seconds)".format(
                     *(statistics.median(values) for values in zip(
                         *((r.doc["raw"]["wall_s"], r.doc["raw"]["cpu_s"],
                            r.doc["speed"]) for r in done)))))
    return reps, timed_metrics(setups, reps), notes


def self_check(name: str, plain: Rep, traced: Rep) -> List[str]:
    """Wrappers fired where they should, were restored, changed nothing."""
    problems = []
    layers = traced.doc["layers"]
    for metric in workloads.MUST_FIRE[name]:
        if not layers.get(metric):
            problems.append(f"wrapper never fired: {metric}")
    for metric in workloads.MUST_STAY_SILENT[name]:
        if layers.get(metric):
            problems.append(f"wrapper fired where it should not: {metric}")
    for entry in traced.doc["not_restored"]:
        problems.append(f"original not restored: {entry}")

    def verdicts(rep):
        return [(op["key"], op.get("verdict"), op.get("bound")) for op in rep.ops]

    if verdicts(plain) != verdicts(traced):
        problems.append("traced verdicts differ from untraced ones")
    return problems


def run_traced(args, deadline: float) -> Tuple[List[Rep], Dict[str, float], List[str]]:
    plain = _spawn(args, "run", 0, deadline)
    traced = _spawn(args, "trace", 1, deadline)
    reps = [plain, traced]
    if plain.error or traced.error:
        return reps, {}, []
    layers = traced.doc["layers"]
    metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    wall = traced.doc["wall_s"]
    metrics["trace.overhead_ratio"] = wall / plain.doc["wall_s"]
    notes = [f"traced wall {wall:.3f}s, untraced wall {plain.doc['wall_s']:.3f}s "
             "(reference seconds)",
             "portfolio engine workers run in child processes: their own "
             "layers are inside formal.portfolio_s"]
    # Layer times are as measured, so their shares are of the measured wall.
    wall = traced.doc["raw"]["wall_s"]
    shares = sorted(((value / wall, name[:-2]) for name, value in metrics.items()
                     if UNITS[name] == "s" and value > 0), reverse=True)
    notes += [f"share {name} {share:.1%}" for share, name in shares]
    problems = self_check(args.workload, plain, traced)
    return reps, metrics, notes + [f"self-check: {p}" for p in problems]


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    scale = "quick" if args.quick else "full"
    with open(EXPECTED) as handle:
        expected = json.load(handle)[scale][args.workload]
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} scale={scale} trace={args.trace}")
    os.makedirs(SCRATCH, exist_ok=True)
    runner = run_traced if args.trace else run_timed
    reps, metrics, notes = runner(args, deadline)
    attempted, failed, problems = grade(reps, expected)
    self_check_failed = any(n.startswith("self-check:") for n in notes)
    for line in notes + describe_ops(reps) + problems:
        print(line)
    names = PER_LAYER if args.trace else END_TO_END
    result_metrics = {}
    for name in names:
        if name in metrics:
            value = metrics[name]
            result_metrics[name] = {"value": value, "unit": UNITS[name]}
            print(f"metric {name} {value:.6g} {UNITS[name]}")
    print(f"metric fail_ratio {failed / attempted:.6g} ratio")
    correct = (failed == 0 and not self_check_failed
               and len(result_metrics) == len(names))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result_metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark whole run_compass workloads (see module doc).")
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size workloads (the benchmark's tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src/repro; run from a "
              "full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        print(json.dumps(run_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
