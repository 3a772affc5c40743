"""Job handlers: what the daemon actually runs, one dict in/out each.

A *job* is a plain JSON document — ``{"kind": ..., ...}`` — and its
result is another plain JSON document, so the exact same handler code
serves both sides of the ``--remote`` flag: the daemon runs jobs
arriving over the socket, and the thin client falls back to calling
:func:`run_job` in-process when the daemon is unreachable.  Keeping
the boundary JSON-only (no pickles over the wire) means a hostile or
stale peer can at worst submit a malformed *job*, which the handler
whitelist rejects with :class:`JobError` — it can never inject code.

Job kinds::

    solve      one portfolio model-checking call on a serialized circuit
    verify     the full Compass CEGAR loop on a registered core
    lint       the static linter over a registered core
    analyze    the SAT-free dataflow summary (repro-analyze/v1)
    simulate   a benchmark workload on a core (optionally bit-parallel)

:func:`job_digest` is the daemon's dedup key: two clients submitting
the same canonical job document attach to one running computation.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable, Dict, Optional

JOB_KINDS = ("solve", "verify", "lint", "analyze", "simulate")


class JobError(Exception):
    """The job document is malformed or names unknown entities."""


def job_digest(job: Dict[str, Any]) -> str:
    """Stable content digest of one job document (the dedup key).

    Canonical-JSON based, so two submitters that serialize the same
    circuit/config produce the same digest and share one computation.
    Every field is part of the identity, even one no handler reads.
    """
    try:
        canon = json.dumps(job, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise JobError(f"job is not JSON-serializable: {exc}") from exc
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _require_dict(job: Dict[str, Any], key: str) -> Dict[str, Any]:
    value = job.get(key)
    if not isinstance(value, dict):
        raise JobError(f"job field {key!r} must be an object, "
                       f"got {type(value).__name__}")
    return value


def _core_from_doc(doc: Dict[str, Any]):
    """Build a registered core from a job's ``core`` object."""
    from repro.cores import CoreConfig, core_registry

    registry = core_registry()
    name = doc.get("name", "Sodor")
    if name not in registry:
        raise JobError(f"unknown core {name!r} "
                       f"(expected one of {sorted(registry)})")
    cfg = CoreConfig(
        xlen=int(doc.get("xlen", 8)),
        imem_depth=int(doc.get("imem", 8)),
        dmem_depth=int(doc.get("dmem", 8)),
        secret_words=int(doc.get("secret_words", 2)),
    )
    return registry[name](cfg, bool(doc.get("with_shadow", True)))


def _config_kwargs(doc: Dict[str, Any], allowed: Dict[str, Callable],
                   what: str) -> Dict[str, Any]:
    """Whitelist + coerce a job's config object into constructor kwargs."""
    kwargs: Dict[str, Any] = {}
    for key, value in doc.items():
        if key not in allowed:
            raise JobError(f"unknown {what} config field {key!r}")
        kwargs[key] = allowed[key](value) if value is not None else None
    return kwargs


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

_SOLVE_FIELDS = {
    "engines": lambda v: tuple(v),
    "max_bound": int,
    "induction_max_k": int,
    "unique_states": bool,
    "pdr_max_frames": int,
    "time_limit": float,
    "max_conflicts": int,
    "start_bound": int,
    "static_max_frames": int,
    "certify": bool,
}


def _run_solve(job, cache, tracer, deadline):
    from repro.codec import to_doc
    from repro.formal.portfolio import PortfolioConfig, verify_portfolio
    from repro.formal.properties import SafetyProperty
    from repro.hdl.serialize import circuit_from_dict

    try:
        circuit = circuit_from_dict(_require_dict(job, "circuit"))
    except (KeyError, TypeError, ValueError) as exc:
        raise JobError(f"bad circuit document: {exc}") from exc
    pdoc = _require_dict(job, "prop")
    if "bad" not in pdoc:
        raise JobError("prop object needs a 'bad' signal name")
    prop = SafetyProperty(
        name=str(pdoc.get("name", "served")),
        bad=str(pdoc["bad"]),
        assumptions=tuple(pdoc.get("assumptions", ())),
        init_assumptions=tuple(pdoc.get("init_assumptions", ())),
        symbolic_registers=frozenset(pdoc.get("symbolic_registers", ())),
        symbolic_all_registers=bool(pdoc.get("symbolic_all", False)),
    )
    kwargs = _config_kwargs(job.get("config", {}) or {}, _SOLVE_FIELDS,
                            "solve")
    if deadline is not None:
        limit = kwargs.get("time_limit")
        kwargs["time_limit"] = (deadline if limit is None
                                else min(limit, deadline))
    config = PortfolioConfig(**kwargs)
    result = verify_portfolio(circuit, prop, config, cache=cache,
                              tracer=tracer)
    return {"kind": "solve", **to_doc(result)}


_VERIFY_FIELDS = {
    "max_bound": int,
    "mc_time_limit": float,
    "use_induction": bool,
    "induction_max_k": int,
    "max_counterexamples": int,
    "max_refinements": int,
    "total_time_limit": float,
    "exact_validation": bool,
    "seed": int,
    "sim_prefilter": bool,
    "sim_trials": int,
    "sim_depth": int,
    "mc_enabled": bool,
    "engine": str,
    "static_prescreen": bool,
    "static_max_frames": int,
    "pdr_max_frames": int,
    "max_conflicts": int,
    "certify": bool,
}


def _run_verify(job, cache, tracer, deadline):
    from repro.cegar import CegarConfig, run_compass
    from repro.codec import to_doc
    from repro.contracts import make_contract_task

    core = _core_from_doc(job.get("core", {}) or {})
    task = make_contract_task(core)
    kwargs = _config_kwargs(job.get("config", {}) or {}, _VERIFY_FIELDS,
                            "verify")
    if deadline is not None:
        limit = kwargs.get("total_time_limit")
        kwargs["total_time_limit"] = (deadline if limit is None
                                      else min(limit, deadline))
    config = CegarConfig(solve_cache=cache, trace=tracer, **kwargs)
    result = run_compass(task, config)
    stats = result.stats
    rows = [stats.row(core.name)]
    rows += stats.portfolio_rows()
    rows += stats.analyze_rows()
    rows += stats.robustness_rows()
    return {
        "kind": "verify",
        "core": core.name,
        "status": result.status.value,
        "secure": result.secure,
        "bound": result.bound,
        "refinements": stats.refinements,
        "counterexamples_eliminated": stats.counterexamples_eliminated,
        "rows": rows,
        "scheme": to_doc(result.scheme),
        "leak": to_doc(result.leak),
    }


def _run_lint(job, cache, tracer, deadline):
    from repro.lint import LintConfig, lint

    core = _core_from_doc(job.get("core", {}) or {})
    config = LintConfig(
        disabled=set(job.get("disable", ()) or ()),
        semantic=not job.get("no_semantic", False),
    )
    started = time.monotonic()
    report = lint(core.circuit, None, config=config)
    return {
        "kind": "lint",
        "core": core.name,
        "ok": report.ok,
        "elapsed": round(time.monotonic() - started, 3),
        "report": report.to_stable_dict(),
    }


def _run_analyze(job, cache, tracer, deadline):
    from repro.cli import analyze_document

    core = _core_from_doc(job.get("core", {}) or {})
    doc = analyze_document(core, max_frames=int(job.get("max_frames", 64)))
    return {"kind": "analyze", "core": core.name, "document": doc}


def _run_simulate(job, cache, tracer, deadline):
    from repro.bench.workloads import WORKLOADS, run_workload_batch
    from repro.cores import CoreConfig, core_registry

    registry = core_registry()
    core_name = job.get("core", "Rocket")
    if core_name not in registry:
        raise JobError(f"unknown core {core_name!r}")
    workload_name = job.get("workload", "median")
    if workload_name not in WORKLOADS:
        raise JobError(f"unknown workload {workload_name!r} "
                       f"(expected one of {sorted(WORKLOADS)})")
    core = registry[core_name](CoreConfig.simulation(), False)
    workload = WORKLOADS[workload_name]
    seed = int(job.get("seed", 0))
    lanes = int(job.get("lanes", 1))
    if lanes < 1:
        raise JobError(f"lane count must be >= 1, got {lanes}")
    started = time.monotonic()
    cycles, _sim = run_workload_batch(core, workload,
                                      range(seed, seed + lanes),
                                      tracer=tracer)
    return {
        "kind": "simulate",
        "core": core.name,
        "workload": workload.name,
        "seed": seed,
        "lanes": lanes,
        "cycles": cycles,
        "elapsed": round(time.monotonic() - started, 3),
    }


_HANDLERS: Dict[str, Callable] = {
    "solve": _run_solve,
    "verify": _run_verify,
    "lint": _run_lint,
    "analyze": _run_analyze,
    "simulate": _run_simulate,
}


def run_job(
    job: Dict[str, Any],
    cache=None,
    tracer=None,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute one job document; returns its JSON-able result document.

    Args:
        job: the job object (``{"kind": ..., ...}``).
        cache: optional :class:`~repro.formal.cache.SolveCache` (the
            daemon passes its store-backed cache; solve/verify jobs
            consult and update it).
        tracer: optional :class:`~repro.obs.Tracer` for progress
            sampling.
        deadline: remaining wall-clock seconds; caps the job's own time
            limits so a submitted deadline cannot be out-waited.

    Raises:
        JobError: malformed document, unknown kind/core/workload.
    """
    if not isinstance(job, dict):
        raise JobError(f"job must be an object, got {type(job).__name__}")
    kind = job.get("kind")
    if kind not in _HANDLERS:
        raise JobError(f"unknown job kind {kind!r} "
                       f"(expected one of {JOB_KINDS})")
    return _HANDLERS[kind](job, cache, tracer, deadline)
