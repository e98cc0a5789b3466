"""Smoke test of the benchmark at tiny sizes; it asserts no timings.

    python -m pytest benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def tiny(workload: str, trace: int, hash_seed: str | None = None) -> tuple[dict, dict]:
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details), json.loads(result)


@pytest.mark.parametrize("workload,trace", [("repeated", 0), ("fresh", 1)])
def test_tiny_run_passes_checks_and_reports_every_metric(workload, trace):
    details, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(details["digests"]) == {"learning_curve", "cli_oneshot", "query_stream"}


def test_same_seed_gives_same_digests_under_any_string_hash_seed():
    first, _ = tiny("fresh", 0, hash_seed="1")
    second, _ = tiny("fresh", 0, hash_seed="2")
    assert first["digests"] == second["digests"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "fresh", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
