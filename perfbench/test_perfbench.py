"""Tests of the benchmark harness, on the reduced-size (``--quick``) workloads.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about a minute on a 2-core machine).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _blocks(stdout):
    """(metric lines, result) per workload, split at each result line."""
    blocks, metrics = [], {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
        elif line.startswith("{"):
            blocks.append((metrics, json.loads(line)))
            metrics = {}
    return blocks


def _check_printed(metrics, result, names):
    for name in names:
        assert name in metrics, f"{name} not printed"
        assert metrics[name][1] == run.UNITS[name]
        assert result["metrics"][name]["unit"] == run.UNITS[name]
    assert set(result["metrics"]) == set(names)
    assert metrics["fail_ratio"] == (0.0, "ratio")


def test_quick_timed_prints_every_end_to_end_metric():
    proc = _run("--workload", "all", "--quick", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    blocks = _blocks(proc.stdout)
    assert len(blocks) == len(run.WORKLOADS)
    for metrics, result in blocks:
        assert result["correct"], proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        _check_printed(metrics, result, run.END_TO_END)


def test_quick_traced_prints_every_layer_and_passes_self_check():
    proc = _run("--workload", "all", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert "self-check:" not in proc.stdout
    blocks = _blocks(proc.stdout)
    assert len(blocks) == len(run.WORKLOADS)
    for metrics, result in blocks:
        assert result["correct"], proc.stdout
        _check_printed(metrics, result, run.PER_LAYER)
        assert metrics["trace.unattributed_share"][0] <= 0.2


def test_wrong_expected_verdict_counts_as_failure(tmp_path, monkeypatch, capsys):
    with open(run.EXPECTED) as handle:
        expected = json.load(handle)
    expected["quick"]["rocket-testing"]["verify"]["verdict"] = "real_leak"
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    args = argparse.Namespace(workload="rocket-testing", seed=1, seconds=1,
                              trace=0, quick=True)
    result = run.run_workload(args)
    (metrics, _), = _blocks(capsys.readouterr().out + json.dumps(result))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert metrics["fail_ratio"][0] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_program_sources(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "sodor-verify", "--seed", "1", "--seconds", "1",
                "--trace", trace, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_sampler_scales_to_reference_speed_and_restores_handler():
    sampler = hostspeed.Sampler()
    half_speed = 2 * hostspeed.REFERENCE_S
    sampler.samples = [(1.0, half_speed, 0.001), (2.0, half_speed, 0.001)]
    # 10 s measured on a host at half speed, less 2 ms of sampling.
    assert sampler.normalise(0.0, 10.0) == pytest.approx(9.998 / 2)
    before = signal.getsignal(signal.SIGALRM)
    sampler.start()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
