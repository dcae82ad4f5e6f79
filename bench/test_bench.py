"""Tests of the benchmark harness and its correctness gate, on smoke-sized instances.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    r = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in wanted]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    r = run_bench("--workload", "dps-channel", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed():
    f = workloads.i3322_functional
    assert f(np.random.default_rng(5)) == f(np.random.default_rng(5))
    assert f(np.random.default_rng(5)) != f(np.random.default_rng(6))


def test_gate_flags_wrong_values_and_open_pincers():
    out = workloads.Outcome("value")
    workloads.check_value(out, workloads.TSIRELSON + 2e-6, workloads.TSIRELSON)
    assert out.errors
    for lower, upper in ((2.0, 2.8), (2.9, 2.8)):
        out = workloads.Outcome("pincer")
        workloads.check_pincer(out, lower, upper)
        assert out.errors


def test_gate_flags_unconverged_solves():
    cfg = workloads.ipm.SolverConfig(max_iterations=2)
    res = workloads.npa.solve_bell(workloads.npa.Scenario.chsh(), 1, workloads.npa.chsh_functional(), cfg=cfg)
    out = workloads.Outcome("chsh")
    workloads.check_solution(out, res.model_result.compiled.problem, res.model_result.solution)
    assert any("status" in e for e in out.errors)
    assert any("DIMACS" in e for e in out.errors)


def test_failing_instance_is_counted_not_raised():
    def boom():
        raise RuntimeError("solver blew up")

    outcomes = run_pass([workloads.Instance("boom", boom)], None)
    assert outcomes[0].errors == ["RuntimeError: solver blew up"]
