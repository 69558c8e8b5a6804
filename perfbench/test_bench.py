"""The benchmark's own tests: short windows of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about four minutes).  Each benchmark run is a fresh process.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3
SECONDS = 2


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0):
    """One run: ``(returncode, record, result)``; cached per arguments."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    assert len(lines) >= 2, completed.stderr[-3000:]
    record = json.loads(lines[-2].removeprefix("record "))
    return completed.returncode, record, json.loads(lines[-1])


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(metric["name"] for metric in declared)
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_checks_pass(workload):
    returncode, record, result = bench(workload, 0)
    assert returncode == 0
    _check_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert record["check_mismatches"] == []
    assert record["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_with_trace(workload):
    returncode, record, result = bench(workload, 1)
    assert returncode == 0
    _check_metrics(result, SPEC["per_layer"])
    tag = f"{workload}-seed{SEED}"
    assert (ROOT / "perfbench" / "out" / f"spans-{tag}.jsonl.gz").is_file()
    layers = json.loads(
        (ROOT / "perfbench" / "out" / f"layers-{tag}.json").read_text()
    )
    assert sorted(layers["metrics"]) == sorted(result["metrics"])


def test_seed_counts_repeat_for_one_seed():
    """Hits must depend on the seed only, never on timing."""
    __, first, __ = bench("hot-rw", 0)
    __, second, __ = bench("hot-rw", 0, attempt=1)
    assert first["seed_counts"]["cache_hits"] > 0
    assert first["seed_counts"] == second["seed_counts"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_self_time_clips_children_to_the_parent():
    from perfbench.tracing import summarize

    spans = [
        (1, "submit", 0.0, 1.0, None, 7),
        # A worker-side child that outlives the submit that caused it.
        (2, "guard", 0.5, 3.0, 1, 7),
        (3, "predict", 1.0, 2.0, 2, 7),
    ]
    summary = summarize(spans)
    assert summary["submit"]["self_s"] == pytest.approx(0.5)
    assert summary["guard"]["self_s"] == pytest.approx(1.5)
    assert summary["predict"]["count"] == 1
