"""Smoke tests of the scripts in ``scripts/``: they run and agree with the library."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from magma_lab import ProfileParams, read_profile_csv, rescale, structure_report

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_speed_sweep_columns_match_library(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("speed_sweep.py", "--points", "2", "--bisect-tol", "1e-8", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        p = ProfileParams(d=3.0, n=2.5, c=float(row["c"]))
        assert row["Q1"] == f"{structure_report(p).Q1:.12f}"
        want = float(row["Q_tau"]) ** (1.0 - p.n) * p.c  # c_bar = Q_tau^(1-n) c
        assert float(row["c_bar"]) == pytest.approx(want, rel=1e-10)


def test_example_regime_matches_library(tmp_path):
    stdout = run_script("example_regime.py", "--bisect-tol", "1e-8", "--out", str(tmp_path))
    printed = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            printed[key.strip()] = value.split()[0]
    p = ProfileParams(d=3.0, n=2.5, c=1.7)
    assert printed["Q1"] == f"{structure_report(p).Q1:.15f}"
    sol = read_profile_csv(str(tmp_path / "profile.csv"))
    assert printed["c_bar"] == f"{rescale(sol, 1.0 / sol.Q_tau).scaling.c_bar:.12f}"
