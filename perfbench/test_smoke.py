"""Tiny-scale smoke test of the benchmark, correctness gate on.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import SERVED  # noqa: E402

SECONDS = 1.0
LISTED = [name for name, workload in SERVED.items() if workload.listed]


@pytest.mark.parametrize(
    "workload", ["bulk_ingest", "small_frames", "tenant_churn", "parallel_trace"])
def test_workload_passes_its_gate(workload):
    result = bench.run_workload(workload, seed=3, seconds=SECONDS, trace=False)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = set(bench.END_TO_END)
    if workload == "parallel_trace":
        expected -= {"sync_ms_p50", "sync_ms_p90", "query_ms_p50", "query_ms_p90"}
    assert set(result["metrics"]) == expected
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", ["bulk_ingest", "parallel_trace"])
def test_tampered_reference_fails_the_run(workload):
    result = bench.run_workload(workload, seed=3, seconds=SECONDS, trace=False,
                                tamper=True)
    assert any("differs" in failure for failure in result["failures"])


@pytest.mark.xfail(strict=True, reason="eviction resets MeasurementDaemon's epoch "
                   "cadence, so a churned windowed tenant never rotates")
def test_windowed_churn_passes_its_gate():
    result = bench.run_workload("tenant_churn_windowed", seed=3, seconds=SECONDS,
                                trace=False)
    assert result["failures"] == []


@pytest.mark.parametrize("workload", ["bulk_ingest", "parallel_trace"])
def test_traced_run_reports_every_layer(workload):
    result = bench.run_workload(workload, seed=3, seconds=SECONDS, trace=True)
    assert result["failures"] == []
    assert set(result["metrics"]) == {name for name, _ in layers.PER_LAYER}
    if workload == "bulk_ingest":
        metrics = result["metrics"]
        assert metrics["nitro.update_ns_per_pkt"] > metrics["nitro.self_ns_per_pkt"] > 0
        assert metrics["records.decode_us_per_frame"] > 0
        assert metrics["client.send_us_per_frame"] > 0
        (_, ratio, _), = [row for row in result["notes"]["blocking_path"]
                          if row[0] == "sum/ingest"]
        assert abs(ratio - 1.0) <= 0.1
    else:
        assert result["metrics"]["engine.agg_cpu_mpps"] > 0


def test_command_prints_metrics_and_exits_zero():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_frames",
         "--seed", "5", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("host ") and "loopback, not a real link" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == LISTED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
