"""Checks of the benchmark itself.

    python -m pytest perfbench/test_counts.py

Each workload runs traced twice with its default seed; the exact work
counts must be identical and every output check must pass.  A directory
holding only BENCHMARK.json and perfbench/ must make the benchmark fail
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = (
    "grid.transforms_per_step",
    "elliptic.transforms_per_cg_iter",
    "elliptic.cg_iters_per_solve",
    "evolution.cg_iters_per_step",
    "profile.shots_per_search",
    "profile.rhs_evals_per_search",
)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["evolve_1d", "transit_2d", "shoot_grid"])
def test_exact_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for res in results:
        assert res["correct"] and res["failed"] == 0
    first, second = (res["metrics"] for res in results)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "evolve_1d", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
