"""The benchmark's own test: every workload at tiny size, untraced and traced.

Run from the repository root:

    python3 -m pytest clonebench/test_clonebench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=180, cwd=cwd, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run(str(tmp_path), BENCHMARK["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    for workload in generate.WORKLOADS:
        first = generate.generate(workload, 5, 1, tiny=True)
        again = generate.generate(workload, 5, 1, tiny=True)
        other = generate.generate(workload, 6, 1, tiny=True)
        assert json.dumps([r["task"] for r in first]) == json.dumps([r["task"] for r in again])
        assert json.dumps([r["task"] for r in first]) != json.dumps([r["task"] for r in other])


def test_generator_does_not_import_the_program():
    code = "import sys; sys.path.insert(0, %r); import generate, checks; print('clonekit' in sys.modules)" % HERE
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT)
    assert out.stdout.strip() == "False"


def test_closed_form_worked_instance():
    # alpha=0.5, beta=0.9, r=0.5: 0.1875 t^2 - 0.55 t + 0.19 = 0 has its root at t* = 0.4.
    case, root = generate.decompose_case(0.5, 0.9, np.array([[0.5], [0.5]]))
    assert case == "case2_II"
    assert root == pytest.approx(0.4, abs=1e-15)
    assert generate.symmetric_optimum("ncm", 0.5, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
