"""Smoke test of the benchmark itself: one-second runs of every workload.

Run from the repo root::

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a clean run has no failed operations, and that a corrupted
reference output is counted as failed rather than passing silently.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def expected_units(trace: int) -> dict:
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import workloads

    assert workloads.END_TO_END == expected_units(0)
    assert workloads.PER_LAYER == expected_units(1)
    assert WORKLOADS == list(workloads.RUNNERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run(workload, 1)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units(1)
    assert result["metrics"]["trace.overhead_ms"]["value"] != 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload):
    result = run(workload, 0, "--corrupt-reference")
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units(0)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
