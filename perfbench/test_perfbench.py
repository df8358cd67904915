"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench -q

The determinism checks run real passes (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, EXACT_LAYER_METRICS, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_every_workload_and_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == PER_LAYER


def _solve(x, converged=True):
    """A captured solve of diag(2, 4) x = (2, 4) with iterate ``x``."""
    return oracle.CapturedSolve(
        indptr=np.array([0, 1, 2]),
        indices=np.array([0, 1]),
        data=np.array([2.0, 4.0]),
        b=np.array([2.0, 4.0], dtype=np.float32),
        result=SimpleNamespace(x=np.asarray(x), converged=converged),
        tolerance=1e-5,
    )


def test_oracle_fails_a_converged_claim_above_tolerance():
    exact = oracle.judge(_solve([1.0, 1.0]))
    assert exact.ratio == 0.0 and not exact.failed
    drifted = oracle.judge(_solve([1.0, 1.0 + 1e-4]))
    assert drifted.ratio > 1.0 and drifted.failed
    assert oracle.judge(_solve([1.0, 1.0], converged=False)).failed


def test_self_time_excludes_direct_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer._wrap(1, inner, None)
    traced_outer = tracer._wrap(0, outer, None)
    tracer.active = True
    traced_outer()
    assert tracer.calls[:2] == [1, 1]
    assert 0.01 <= tracer.self_s[0] < 0.02
    assert tracer.self_s[1] >= 0.02
    assert tracer.inclusive_s[0] == pytest.approx(
        tracer.self_s[0] + tracer.self_s[1]
    )
    (inner_span, outer_span) = tracer.spans
    assert inner_span[2] == outer_span[1]  # parent id of inner is outer


def _fingerprint(record: dict) -> dict:
    return {
        "digest": record["digest"],
        "true_residual_max": record["true_residual_max"],
        "failed_ops": record["failed_ops"],
        "exact": {
            name: record["layers"].get(name, 0)
            for name in sorted(EXACT_LAYER_METRICS)
        },
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_and_another_seed_differs(workload, tmp_path):
    def traced_pass(seed: int) -> dict:
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        if WORKLOADS[workload].prepare is not None:
            WORKLOADS[workload].prepare(seed, workdir)
        return run.run_pass(ROOT, workload, seed, 1, workdir, timeout=170)

    first = traced_pass(3)
    assert not first["problems"]
    assert first["layers"]["trace.coverage"] >= 0.95
    assert _fingerprint(traced_pass(3)) == _fingerprint(first)
    other = _fingerprint(traced_pass(4))
    assert other["digest"] != first["digest"]
    if workload != "suite-campaign":  # its seed only orders the systems
        assert other["exact"] != _fingerprint(first)["exact"]
    if workload == "large-solve":  # traffic profiles at a fixed seed
        assert other["true_residual_max"] != first["true_residual_max"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
