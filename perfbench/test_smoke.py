"""Smoke test of the ladder benchmark on tiny ladders.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs a four-rung ladder in both modes and must emit exactly
the metrics BENCHMARK.json lists, each with its unit.  The tolerance check
is relaxed because estimates at such small N are far from converged; the
byte-identity checks still apply.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_ladder_emits_every_metric(name, trace):
    w = run.WORKLOADS[name]
    tiny = dataclasses.replace(w, p_max=w.p_min + 3, tol=1.0)
    result = run.measure(name, tiny, seed=7, seconds=0.1, trace=trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["models.eval_ratio"]["value"] == 1.0
    json.dumps(result)


def test_self_time_subtracts_union_of_overlapping_children():
    root = spans.Span(0, "root", 0.0, 10.0, None, 1)
    children = {0: [
        spans.Span(1, "a", 1.0, 4.0, 0, 2),
        spans.Span(2, "b", 3.0, 5.0, 0, 3),  # overlaps a on another thread
        spans.Span(3, "c", 9.0, 12.0, 0, 2),  # clipped at the root's end
    ]}
    assert spans._self_time(root, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(run.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-parkahn7-t2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
