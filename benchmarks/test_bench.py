"""Smoke-size self-test of the benchmark.

    python3 -m pytest -q benchmarks/test_bench.py

Runs every workload on tiny configs with and without tracing, and checks the
output contract: every metric named in BENCHMARK.json is printed with its
unit, the outputs pass their checks, the exact call counts match the config,
and traced spans nest (each child inside its parent's interval).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from spans import nesting_errors  # noqa: E402


def _run(script: Path, workload: str, trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(HERE / "run.py", workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_ops"):
        assert any(line.strip().startswith(name) for line in lines), name
    assert any(line.startswith("environment ") for line in lines)
    assert any(line.startswith("digests ") for line in lines)
    if trace:
        counts = [line for line in lines if line.strip().startswith("count ")]
        assert counts and all(line.endswith("-> match") for line in counts), counts
        dumps = json.loads((HERE / "out" / f"spans-{workload}.json").read_text())
        assert dumps and all(d["spans"] for d in dumps)
        assert nesting_errors(dumps) == []
        assert len({d["pass"] for d in dumps}) == 1


def test_nesting_check_catches_a_child_outside_its_parent():
    spans = [{"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 1.0},
             {"id": 1, "name": "b", "parent": 0, "start": 0.5, "end": 1.5}]
    assert len(nesting_errors([{"pid": 1, "spans": spans}])) == 1
    spans[1]["end"] = 0.9
    assert nesting_errors([{"pid": 1, "spans": spans}]) == []


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = _run(tmp_path / "benchmarks" / "run.py", "default", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
