"""Golden output of everything that renders the Table-3 statistics.

Two surfaces print a CEGAR run's statistics: ``repro verify`` on
stdout (with and without ``--cache-stats``) and the Markdown report of
:func:`repro.cegar.report.render_report`.  This test runs them on three
small tasks and compares the text with ``tests/data/stats_rendering.json``,
with only the ``\\d+\\.\\d+s`` times masked:

- the paper's Figure-2 circuit: bounded by the CLI's sequential BMC,
  proved by the portfolio with a PDR certificate and by k-induction
  for the report;
- its leaky variant, a real leak;
- a guarded mux whose select is ``r1 != r2`` for two registers that
  add the same input each cycle.  The static pre-screen cannot prove
  it but skips the shallow BMC bounds, and PDR proves it with an
  inductive-invariant certificate.  Its portfolio runs light every
  row: static pre-screen, certificates, solve cache, checkpoint plus
  resume, and a ``--store`` that answers a warm run from disk.

To re-record the golden file after a deliberate output change::

    PYTHONPATH=src python tests/unit/test_stats_rendering.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import types
from typing import Dict
from unittest import mock

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(ROOT, "tests", "data", "stats_rendering.json")
TIME = re.compile(r"\d+\.\d+s")


def _mask(text: str) -> str:
    return TIME.sub("<time>", text)


def fig2_task(leaky: bool):
    """The paper's Figure 2: a secret behind three muxes."""
    from repro.cegar import TaintVerificationTask
    from repro.hdl import ModuleBuilder
    from repro.taint import TaintSources

    b = ModuleBuilder("fig2")
    sel1 = b.input("sel1", 1)
    sel23 = b.input("sel23", 1) if leaky else b.const(0, 1)
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
    return TaintVerificationTask(
        name="fig2-leaky" if leaky else "fig2",
        circuit=b.build(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"m.secret", "m.pub1", "m.pub2", "m.pub3"}),
    )


def guarded_task():
    """A mux select that only an inductive invariant pins to 0."""
    from repro.cegar import TaintVerificationTask
    from repro.hdl import ModuleBuilder
    from repro.taint import TaintSources

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
        name="guarded",
        circuit=b.build(),
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset({"m.secret", "m.pub"}),
    )


@contextlib.contextmanager
def _building(task):
    """Make the CLI build ``task`` instead of a core."""
    core = types.SimpleNamespace(name=task.name, circuit=task.circuit)
    with mock.patch("repro.cli._build_core", lambda args, **kw: core), \
            mock.patch("repro.contracts.make_contract_task", lambda c: task):
        yield


def _cli(task, *argv: str) -> str:
    from repro.cli import main

    out = io.StringIO()
    with _building(task), contextlib.redirect_stdout(out):
        code = main(["verify", "--max-bound", "6", *argv])
    return f"exit {code}\n{out.getvalue()}"


def _report(task, checkpoint_dir=None, resume=False, **config) -> str:
    from repro.cegar import CegarConfig, run_compass
    from repro.cegar.report import render_report

    result = run_compass(task, CegarConfig(max_bound=6, induction_max_k=6,
                                           seed=0, **config),
                         checkpoint_dir=checkpoint_dir, resume=resume)
    return render_report(result, task)


def all_cases() -> Dict[str, str]:
    fig2, leaky, guarded = fig2_task(False), fig2_task(True), guarded_task()
    cases: Dict[str, str] = {}
    for flags in ((), ("--cache-stats",)):
        suffix = "+cache-stats" if flags else ""
        cases[f"cli/fig2{suffix}"] = _cli(fig2, *flags)
        cases[f"cli/fig2-portfolio{suffix}"] = _cli(
            fig2, "--engine", "portfolio", *flags)
        cases[f"cli/fig2-leaky{suffix}"] = _cli(leaky, *flags)
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "store")
            ckpt = os.path.join(tmp, "ckpt")
            run = ("--engine", "portfolio", "--static-prescreen",
                   "--store", store, *flags)
            cases[f"cli/guarded-cold{suffix}"] = _cli(
                guarded, *run, "--checkpoint", ckpt)
            cases[f"cli/guarded-resume{suffix}"] = _cli(
                guarded, *run, "--checkpoint", ckpt, "--resume")
            cases[f"cli/guarded-warm{suffix}"] = _cli(guarded, *run)
            cases[f"cli/guarded-sequential-checkpoint{suffix}"] = _cli(
                guarded, "--checkpoint", os.path.join(tmp, "seq"), *flags)

    cases["report/fig2"] = _report(fig2)
    cases["report/fig2-leaky"] = _report(leaky)
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        ckpt = os.path.join(tmp, "ckpt")
        knobs = dict(engine="portfolio", static_prescreen=True,
                     store_dir=store)
        cases["report/guarded-cold"] = _report(guarded, ckpt, **knobs)
        cases["report/guarded-resume"] = _report(guarded, ckpt, resume=True,
                                                 **knobs)
    return {name: _mask(text) for name, text in cases.items()}


def _golden() -> Dict[str, str]:
    if not os.path.exists(GOLDEN):  # before the first --record
        return {}
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def rendered() -> Dict[str, str]:
    return all_cases()


def test_same_cases(rendered):
    assert sorted(rendered) == sorted(_golden())


@pytest.mark.parametrize("name", sorted(_golden()))
def test_rendering_matches_golden(rendered, name):
    assert rendered[name] == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record = all_cases()
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(record)} cases in {GOLDEN}")
