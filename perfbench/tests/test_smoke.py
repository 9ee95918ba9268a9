"""Smoke self-test of the benchmark: tiny workloads, schema and the
reference check.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert END_TO_END == run.END_TO_END
    layers = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    layers[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1]
    assert PER_LAYER == layers
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def _check_schema(result, names):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["error_rate"] == 0.0
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "click",
            "git_commit", "src_sha256"} <= set(result["provenance"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_end_to_end(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, tiny=True,
                     setup_samples=1)
    _check_schema(result, END_TO_END)
    assert result["metrics"]["wall_s"]["value"] > 0.0
    assert result["metrics"]["setup_s"]["value"] > 0.0


@pytest.mark.parametrize("workload", ["normal_state", "pipeline"])
def test_tiny_workload_traced(workload):
    result = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    _check_schema(result, PER_LAYER)
    assert result["metrics"]["permittivity.bcs_g.calls"]["value"] == 0


def test_tiny_jump_traced_counts_kernel_calls():
    result = run.run("jump_all", seed=3, seconds=0, trace=True, tiny=True)
    _check_schema(result, PER_LAYER)
    metrics = result["metrics"]
    assert metrics["lifshitz.tc_jump.calls"]["value"] == 1
    assert metrics["permittivity.bcs_g.calls"]["value"] > 0
    assert metrics["lifshitz.sum.calls"]["value"] == 2


def test_perturbed_reference_counts_as_failure(tmp_path):
    reference = worker.load_reference()
    clean = worker.run_pass("temperature_scan", 3, False, True, tmp_path / "a",
                            reference)
    assert clean["attempted"] == 1 and clean["failed"] == 0

    perturbed = copy.deepcopy(reference)
    key = clean["ops"][0]["key"]
    perturbed["temperature_scan"][key]["value"] *= 1.0 + 1e-5
    result = worker.run_pass("temperature_scan", 3, False, True, tmp_path / "b",
                             perturbed)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert key in result["ops"][0]["failures"][0]


def test_missing_boundary_is_reported_missing(monkeypatch):
    from sccasimir import analysis
    monkeypatch.delattr(analysis, "dynes_conductance")
    recorder = tracing.Recorder()
    recorder.install()
    recorder.restore()
    metrics = recorder.metrics()
    assert "analysis.dynes_conductance.calls" not in metrics
    assert "analysis.dynes_fit.self_s" in metrics


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
