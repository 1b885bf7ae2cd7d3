"""End-to-end command line tests: config merging, artifacts, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magma_lab.cli
import magma_lab.diagnostics
from magma_lab import (
    Field,
    ProfileParams,
    SnapshotFormatError,
    TorusGrid,
    field_stats,
    hs_norm,
    integrate_shot,
    measure_mass,
    monitor_index,
    q_star,
    read_profile_csv,
    read_snapshot,
    write_snapshot,
)
from magma_lab.cli import _config_hash, _initial_field, _load_run_snapshots, _read_kv_file, main


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parsed(stdout: str) -> dict[str, str]:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


@pytest.fixture(scope="module")
def critical_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    out_dir = tmp_path_factory.mktemp("critical")
    code, out, _ = run_cli([
        "shoot", "--d", "3", "--n", "2.5", "--c", "1.7",
        "--bisect-tol", "1e-8", "-o", str(out_dir),
    ])
    assert code == 0
    return out_dir, parsed(out)


@pytest.fixture(scope="module")
def embed_profiles(tmp_path_factory) -> dict[int, Path]:
    """Critical profile archives of d = 1 and d = 2 (n = 2.5, c = 1.7), by dimension."""
    out = {}
    for d in (1, 2):
        out[d] = tmp_path_factory.mktemp(f"profile{d}")
        argv = ["shoot", "--d", str(d), "--n", "2.5", "--c", "1.7", "--bisect-tol", "1e-8"]
        assert run_cli(argv + ["-o", str(out[d])])[0] == 0
    return out


@pytest.fixture(scope="module")
def evolve_run(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("evolved")
    code, out, _ = run_cli([
        "evolve", "--n-points", "32", "--n", "2", "--dt", "0.05",
        "--t-end", "0.5", "--init", "modes:base=1;amp=0.2,k=1,phase=0",
        "--snapshot-every", "1", "-o", str(out_dir),
    ])
    assert code == 0
    assert parsed(out)["verdict"] == "completed_to_t_end"
    return out_dir


def test_no_subcommand_is_usage_error():
    code, _, _ = run_cli([])
    assert code == 1


def test_version_exits_zero():
    code, out, _ = run_cli(["--version"])
    assert code == 0


def test_unknown_flag_is_usage_error(tmp_path):
    code, _, _ = run_cli(["shoot", "--bogus", "1"])
    assert code == 1
    code, _, _ = run_cli([
        "evolve", "--n-points", "16", "--n", "2", "--dt", "0.1", "--t-end", "0.1",
        "--adaptive", "-o", str(tmp_path / "x"),
    ])
    assert code == 1


def test_missing_required_option():
    code, _, err = run_cli(["evolve", "--n", "2", "--dt", "0.1", "--t-end", "1"])
    assert code == 1


def test_bad_option_value():
    code, _, err = run_cli([
        "evolve", "--n-points", "many", "--n", "2", "--dt", "0.1",
        "--t-end", "0.1", "-o", "/tmp/unused",
    ])
    assert code == 1
    assert "n_points" in err


def test_shoot_single_shot(tmp_path):
    out_dir = tmp_path / "shot"
    code, out, _ = run_cli([
        "shoot", "--d", "3", "--n", "2.5", "--c", "1.7",
        "--mu", "-0.021", "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert info["classification"] == "crossed_floor"
    assert float(info["r_star"]) > 1.0
    sol = read_profile_csv(out_dir / "profile.csv")
    assert sol.params.mu == -0.021
    assert np.isnan(sol.Q_tau)  # single crossing shot has no limit
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "shoot"
    assert manifest["outputs"] == ["profile.csv"]
    assert manifest["config"]["mu"] == -0.021
    assert manifest["config_hash"] == _config_hash(manifest["config"])


def test_shoot_critical_output(critical_run):
    out_dir, info = critical_run
    assert float(info["mu_c"]) == pytest.approx(-0.0207675, abs=1e-5)
    assert float(info["Q_tau"]) == pytest.approx(0.73759, abs=1e-3)
    assert float(info["c_bar"]) > 2.5
    assert float(info["decay_k"]) > 0.0
    assert float(info["mu3_min"]) < float(info["mu1_min"]) < float(info["mu2_min"])
    sol = read_profile_csv(out_dir / "profile.csv")
    assert sol.decay is not None
    assert sol.params.mu == pytest.approx(float(info["mu_c"]))


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nd = 3\nn = 2.5\nc = 1.6\nmu = -0.021\n")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli([
        "shoot", "--config", str(cfg), "--c", "1.7", "-o", str(out_dir),
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["c"] == 1.7  # flag beats file
    assert manifest["config"]["d"] == 3.0  # file beats nothing
    assert manifest["config"]["r_max"] == 200.0  # default fills the rest


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nn = 2.5\nc = 1.7\nmu = -0.021\nbogus = 1\n")
    code, _, err = run_cli(["shoot", "--config", str(cfg)])
    assert code == 1
    assert "bogus" in err
    for line in ("adaptive = true", "step_tol = 1e-8", "s_monitor = 2"):
        cfg.write_text(f"n_points = 16\nn = 2\ndt = 0.1\nt_end = 0.1\n{line}\n")
        code, _, err = run_cli(["evolve", "--config", str(cfg), "-o", str(tmp_path / "x")])
        assert code == 1
        assert f":5: unknown config key {line.split(' = ')[0]!r}" in err


@pytest.mark.parametrize("text, message", [
    ("d = 3\nn = 2.5\nc = 1.7\nbogus = 1\n", ":4: unknown config key 'bogus'"),
    ("d = 3\nn = 2.5\nc = abc\n", ":3: bad value for 'c': 'abc'"),
    ("d = 3\n\n# mu below\nn = 2.5\nc = 1.7\nmu = x\n", ":6: bad value for 'mu': 'x'"),
])
def test_config_file_errors_name_the_line(tmp_path, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "magma_lab.cli", "shoot", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert f"{cfg}{message}" in proc.stderr and "Traceback" not in proc.stderr
    code, _, err = run_cli(["shoot", "--config", str(cfg), "--c", "1.7", "--mu", "-0.021"])
    if "bogus" not in text:  # a flag overrides the bad file value
        assert code == 0 and err == ""


_EVOLVE_CFG = "n_points = 16\nn = 2.5\ndt = 0.01\nt_end = 0.02\n"


@pytest.mark.parametrize("command, text, message", [
    ("evolve", "n_points = 16\nn = 2\ndt = -1\nt_end = 0.1\n", ":3: dt must be positive"),
    ("shoot", "d = 3\nn = 5\nc = 1.7\n", ":2: exponent n must lie in [2, 3]"),
    ("shoot", "d = 3\nn = 2.5\nc = 9\n", ":3: wave speed c must lie in [1.55, n)"),
    ("evolve", _EVOLVE_CFG + "init = bogus:1\n", ":5: init: unknown initial-condition kind"),
    ("evolve", _EVOLVE_CFG + "init = constant:abc\n", ":5: init: could not convert string"),
    ("evolve", _EVOLVE_CFG + "init = modes:base=1;amp=0.1,k=1:2\n",
     ":5: init: mode k needs one integer per axis"),
])
def test_config_file_range_errors_name_the_line(tmp_path, command, text, message):
    # a value that parses but fails a later range check used to be reported
    # without its file and line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "magma_lab.cli", command, "--config", str(cfg),
         "-o", str(tmp_path / "x")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert f"config error: {cfg}{message}" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "x").exists()


def test_range_errors_of_flags_name_no_file(tmp_path):
    # a bad value given as a flag overrides the file's, which is then not named
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nn = 2.5\nc = 1.7\n")
    code, _, err = run_cli(["shoot", "--config", str(cfg), "--n", "5"])
    assert code == 1 and err == "config error: exponent n must lie in [2, 3]\n"


def test_repeated_config_key_rejected(tmp_path):
    # the last value used to win silently
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nn = 2.0\nc = 1.7\nmu = -0.021\nn = 3.0\n")
    code, _, err = run_cli(["shoot", "--config", str(cfg), "-o", str(tmp_path / "x")])
    assert code == 1
    assert f"{cfg}:5" in err and "'n'" in err
    assert not (tmp_path / "x").exists()


def test_config_hash_deterministic(tmp_path):
    args = ["shoot", "--d", "3", "--n", "2.5", "--c", "1.7", "--mu", "-0.021"]
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    run_cli(args + ["-o", str(dirs[0])])
    run_cli(args + ["-o", str(dirs[1])])
    run_cli(args + ["--r-max", "150", "-o", str(dirs[2])])
    hashes = [
        json.loads((d / "manifest.json").read_text())["config_hash"] for d in dirs
    ]
    assert hashes[0] == hashes[1]
    assert hashes[2] != hashes[0]


def test_evolve_artifacts(evolve_run):
    run_dir = evolve_run
    log_lines = (run_dir / "log.csv").read_text().splitlines()
    assert log_lines[0] == "t,mass,monitor,min_phi,cg_iters"
    assert len(log_lines) == 1 + 11  # t = 0 and ten steps
    first = log_lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[4]) == 0

    bins = sorted(run_dir.glob("snap_*.bin"))
    sidecars = sorted(run_dir.glob("snap_*.json"))
    assert len(bins) == len(sidecars) == 11
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"log.csv"} | {p.name for p in bins} | {
        p.name for p in sidecars
    }
    for bin_path, sidecar_path in zip(bins, sidecars):
        fld = read_snapshot(bin_path)
        assert fld.grid.shape == (32,)
        meta = json.loads(sidecar_path.read_text())
        assert sorted(meta) == ["config_hash", "monitor", "t"]  # the name holds the ordinal
        assert meta["config_hash"] == manifest["config_hash"]
        assert np.isfinite(meta["monitor"])
    times = [json.loads(p.read_text())["t"] for p in sidecars]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.5)


def test_evolve_init_file_round_trip(evolve_run, tmp_path):
    snap = evolve_run / "snap_000005.bin"
    out_dir = tmp_path / "resumed"
    code, out, _ = run_cli([
        "evolve", "--n-points", "32", "--n", "2", "--dt", "0.05",
        "--t-end", "0.1", "--init", f"file:{snap}", "-o", str(out_dir),
    ])
    assert code == 0
    assert parsed(out)["verdict"] == "completed_to_t_end"
    resumed = read_snapshot(out_dir / "snap_000000.bin")
    np.testing.assert_array_equal(resumed.values, read_snapshot(snap).values)


def test_evolve_init_file_grid_mismatch(evolve_run, tmp_path):
    snap = evolve_run / "snap_000000.bin"
    code, _, err = run_cli([
        "evolve", "--n-points", "64", "--n", "2", "--dt", "0.05",
        "--t-end", "0.1", "--init", f"file:{snap}", "-o", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "grid" in err


def test_evolve_init_grammar_errors(tmp_path):
    base = ["evolve", "--n-points", "16", "--n", "2", "--dt", "0.1",
            "--t-end", "0.1", "-o", str(tmp_path / "x"), "--init"]
    assert run_cli(base + ["wavelet:1"])[0] == 1
    assert run_cli(base + ["justavalue"])[0] == 1
    assert run_cli(base + ["modes:amp=1,k=1"])[0] == 1
    assert run_cli(base + ["modes:base=1;amp=0.1"])[0] == 1
    assert run_cli(base + ["modes:base=1;amp=0.1,k=1,k=2"])[0] == 1


def test_evolve_verdicts_exit_zero(tmp_path):
    code, out, _ = run_cli([
        "evolve", "--n-points", "32", "--n", "2", "--dt", "0.05",
        "--t-end", "0.5", "--init", "modes:base=1;amp=0.2,k=1,phase=0",
        "--threshold", "0.5", "-o", str(tmp_path / "x"),
    ])
    assert code == 0
    info = parsed(out)
    assert info["verdict"] == "threshold_exceeded"
    assert float(info["t_event"]) == 0.0
    assert float(info["final_monitor"]) > 0.5


_EVOLVE = ["evolve", "--n-points", "64", "--n", "2", "--init", "modes:base=1;amp=0.3,k=1"]
_SHOOT = ["shoot", "--d", "3", "--n", "2.5", "--c", "1.7"]


@pytest.mark.parametrize(
    "argv",
    [
        _EVOLVE + ["--dt", "0.01", "--t-end", "0.1", "--elliptic-tol", "1e-300"],
        _EVOLVE + ["--dt", "inf", "--t-end", "0.1"],
        _EVOLVE + ["--dt", "0.01", "--t-end", "inf"],
        _EVOLVE + ["--dt", "1e-300", "--t-end", "1e300"],
        _EVOLVE + ["--dt", "0.01", "--t-end", "0.1", "--s-monitor", "nan"],
        _SHOOT + ["--mu", "-0.02", "--r-max", "nan"],
        _SHOOT + ["--mu", "-0.02", "--r-max", "inf"],
        _SHOOT + ["--mu", "-0.02", "--r-max", "0"],
        _SHOOT + ["--mu", "-0.02", "--r-max=-5"],
        _SHOOT + ["--mu", "-0.021", "--r-max", "1e307"],
        _SHOOT + ["--mu", "-inf"],
        _SHOOT + ["--mu", "-1e30"],
        ["shoot", "--d", "1e-300", "--n", "2.5", "--c", "1.7"],
        _SHOOT + ["--r-max", "2e306"],
        _SHOOT + ["--r-max", "3e306"],
        _SHOOT + ["--r-max", "1e307"],
        _SHOOT + ["--bisect-tol", "nan"],
        _SHOOT + ["--bisect-tol", "inf"],
        ["shoot", "--d", "1e308", "--n", "2.5", "--c", "1.7", "--mu", "-0.02"],
        ["shoot", "--d", "1e308", "--n", "2.5", "--c", "1.7"],
        ["shoot", "--d", "1e300", "--n", "2.5", "--c", "1.7", "--mu", "-0.02"],
        ["shoot", "--d", "1e15", "--n", "2.5", "--c", "1.7", "--mu", "-0.02"],
        ["shoot", "--d", "1e15", "--n", "2.5", "--c", "1.7"],
        ["evolve", "--n-points", "8,8", "--lengths", "1e200", "--n", "2", "--dt", "0.1",
         "--t-end", "0.2"],
        ["evolve", "--n-points", "8,8", "--lengths", "1e-200,1e-200", "--n", "2", "--dt", "0.1",
         "--t-end", "0.2", "--init", "modes:base=1;amp=0.5,k=1:0"],
    ],
    ids=["cg-breakdown", "dt-inf", "t-end-inf", "steps-overflow", "s-monitor-nan",
         "r-max-nan", "r-max-inf", "r-max-0", "r-max-neg", "r-max-huge", "mu-neg-inf",
         "mu-huge", "d-tiny",
         "r-max-huge-search", "r-max-final-cap-overflow", "r-max-cap-overflow",
         "bisect-tol-nan", "bisect-tol-inf",
         "d-huge", "d-huge-search", "d-huge-1e300", "d-1e15", "d-1e15-search",
         "volume-huge", "volume-tiny"],
)
def test_degenerate_values_end_in_exit_code(request, tmp_path, argv):
    # a separate interpreter with a timeout: some of these used to hang
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "magma_lab.cli", *argv, "-o", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (0, 1, 2, 3)
    if proc.returncode == 0:  # each command reports under its own key
        key = {"evolve": "verdict", "shoot": "classification" if "--mu" in argv else "mu_c"}
        assert key[argv[0]] in parsed(proc.stdout)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1  # no warning printed ahead of the error
    if request.node.callspec.id.startswith("d-huge"):  # a NumPy warning used to precede it
        assert proc.returncode == 2
        assert proc.stderr.startswith("numerical failure: ProfileError: the series at r = 0 "
                                      "leaves the float range at d=1e+30")
    if request.node.callspec.id == "r-max-huge-search":  # the largest caps that stay finite
        assert proc.returncode == 0
    if request.node.callspec.id in ("r-max-huge", "r-max-final-cap-overflow", "r-max-cap-overflow"):
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: r_max must be positive with 32 * r_max finite")
    if request.node.callspec.id == "r-max-final-cap-overflow":  # 32 * 2 * 3e306 overflows
        assert "the final shot's 2 * r_max, got 3e+306" in proc.stderr
    if request.node.callspec.id.startswith("d-1e15"):  # a stiff shot used to run for minutes
        assert proc.returncode == 2
        assert proc.stderr.startswith("numerical failure: Indeterminate: integrator failed: over ")
    if request.node.callspec.id == "s-monitor-nan":  # no such option: a usage error
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: unrecognized arguments: --s-monitor nan")
    if request.node.callspec.id.startswith("volume"):  # phi = 1 logged nan; hs_norm read 0
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: side lengths must give a positive finite "
                                      "volume and cell volume, got ")


def _main_in_child(argv: list[str]) -> subprocess.CompletedProcess:
    """cli.main(argv) in a separate interpreter with a 60 s timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", f"import sys, magma_lab.cli; sys.exit(magma_lab.cli.main({argv!r}))"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_infinite_dimension_is_refused():
    # d = inf made every step NaN, and the shot never ended
    proc = _main_in_child(["shoot", "--d", "inf", "--n", "2.5", "--c", "1.7", "--mu", "-0.02"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "config error: dimension d must be positive and finite\n"


@pytest.mark.parametrize("argv, message", [
    (_SHOOT + ["--bisect-tol", "-1"], "bisect_tol must be nonnegative and finite"),
    (["evolve", "--n-points", "16", "--n", "2", "--dt", "1e-300", "--t-end", "1e-3"],
     "t_end/dt must be at most 100000 steps"),
], ids=["bisect-tol-negative", "evolve-steps"])
def test_unbounded_work_is_refused(tmp_path, argv, message):
    # a negative bisect_tol ran as 0; the run asked for 1e297 steps and was
    # still running after 60 s
    proc = _main_in_child(argv + ["-o", str(tmp_path / "run")])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"config error: {message}\n"


def test_overflowing_state_ends_in_a_verdict_without_warnings(tmp_path):
    # the initial monitor was nan, which no threshold caught, and NumPy
    # printed eight RuntimeWarnings before the run ended on an elliptic failure
    proc = _main_in_child(["evolve", "--n-points", "16", "--n", "2", "--dt", "1e-3",
                           "--t-end", "1e-3", "--init", "modes:base=1e308",
                           "-o", str(tmp_path / "run")])
    assert (proc.returncode, proc.stderr) == (0, "")
    info = parsed(proc.stdout)
    assert (info["verdict"], info["t_event"]) == ("threshold_exceeded", "0.0")


def test_sidecar_writes_a_monitor_that_is_not_finite_as_null(tmp_path):
    # it was written as Infinity, which is not JSON (RFC 8259)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(["evolve", "--n-points", "8", "--lengths", "1e-200", "--n", "2",
                            "--dt", "0.1", "--t-end", "0.2", "--init", "modes:base=1;amp=0.1,k=1",
                            "-o", str(out_dir)])
    assert code == 0
    assert (parsed(out)["verdict"], parsed(out)["final_monitor"]) == ("threshold_exceeded", "inf")

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    sidecar = json.loads((out_dir / "snap_000000.json").read_text(), parse_constant=refuse)
    assert sidecar["monitor"] is None and sidecar["t"] == 0.0
    assert [t for t, _ in _load_run_snapshots(str(out_dir))] == [0.0]


def test_negative_value_in_exponent_notation(tmp_path):
    # argparse alone takes "-1e5" for an option and fails with "expected one argument"
    code, out, err = run_cli(_SHOOT + ["--mu", "-1e5", "-o", str(tmp_path / "shot")])
    assert code == 0, err
    assert parsed(out)["classification"] == "crossed_floor"


def test_a_range_that_starts_with_a_minus_sign_is_a_value(embed_profiles, tmp_path):
    # argparse alone took "-1:3:2" and "-1e308:1e308:3" for options, and both
    # runs exited 1 with "expected one argument" before any range check
    code, out, err = run_cli(["sweep", "--d", "-1:3:2", "--n", "2.5", "--c", "1.7",
                              "--bisect-tol", "1e-6", "-o", str(tmp_path / "sweep")])
    assert (code, err, parsed(out)["failures"]) == (0, "", "1")
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",ValueError: dimension d must be positive and finite")
    code, out, err = run_cli(["embed", "--profile", str(embed_profiles[1]), "--n-points",
                              "64,64,64", "--lengths", "-1e308:1e308:3", "-o", str(tmp_path / "e")])
    assert (code, out, err) == (1, "", "config error: side lengths must be positive, got nan\n")


def test_manifest_writes_a_config_value_that_is_not_finite_as_a_string(tmp_path):
    # --threshold inf was written as Infinity, which is not JSON (RFC 8259)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(["evolve", "--n-points", "8", "--n", "2", "--dt", "0.1",
                            "--t-end", "0.2", "--threshold", "inf", "-o", str(out_dir)])
    assert (code, err) == (0, "")

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    manifest = json.loads((out_dir / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["config"]["threshold"] == "inf"
    assert manifest["config_hash"] == _config_hash(manifest["config"])
    sidecar = json.loads((out_dir / "snap_000000.json").read_text(), parse_constant=refuse)
    assert sidecar["config_hash"] == manifest["config_hash"]
    # the hash sees each value that is not finite as its string, and a finite
    # config as it always did
    assert (_config_hash({"a": [np.inf, -np.inf], "b": np.nan})
            == _config_hash({"a": ["inf", "-inf"], "b": "nan"}))
    cfg = {"n_points": (8, 8), "lengths": [1e308, 0.1], "mu": -0.0, "init": None}
    assert _config_hash(cfg) == hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _fuzz_run(argv: list[str]) -> tuple[int, str]:
    """run_cli(argv) with every warning caught: its exit code and stdout, once
    the contract of every command line holds (an exit code 0 to 3, at most one
    line on stderr, no traceback and no warning ahead of the error)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err
    assert [str(w.message) for w in caught] == []
    return code, out


def _comma(values) -> str:
    return ",".join(map(str, values))


def _spelled(values):
    """A float from values, spelled as repr, in exponent notation or in %g."""
    return st.tuples(values, st.sampled_from([repr, "{:e}".format, "{:.17E}".format,
                                              "{:g}".format])).map(lambda vf: vf[1](vf[0]))


_ANY_NUMBER = st.one_of(
    _spelled(st.floats()),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 99),
              st.integers(-330, 330)),
    st.sampled_from(["nan", "-inf", "inf", "0", "-0", "1e400", "-1e-400", "", "x", "-", "1,2"]),
)
_SHOOT_RANGES = {  # values in these ranges reach the shot
    "--d": st.floats(0.5, 12.0),
    "--n": st.floats(2.0, 3.0),
    "--c": st.floats(1.55, 2.0),
    "--mu": st.floats(-6.0, 12.0).map(lambda e: -(10.0 ** -e)),
    "--r-max": st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
}


@st.composite
def _shoot_argv(draw):
    """shoot --d --n --c --mu [--r-max], as '--flag value' or '--flag=value', each value
    in its flag's range but for at most one flag, whose value may be anything."""
    wild, argv = draw(st.sampled_from([None, *_SHOOT_RANGES])), ["shoot"]
    for flag, values in _SHOOT_RANGES.items():
        if flag == "--r-max" and flag != wild and draw(st.booleans()):
            continue
        value = draw(_ANY_NUMBER if flag == wild else _spelled(values))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(_shoot_argv())
@example(_SHOOT + ["--mu", "-1E+05"])
@example(_SHOOT + ["--mu", "-1", "--r-max", "6.08363e-306"])  # ZeroDivisionError at r0
@example(_SHOOT + ["--mu", "-1", "--r-max", "1e-160"])  # OverflowError in the error norm
def test_shoot_argv_fuzz(argv):
    # any single-shot command line ends in an exit code with at most one line
    # on stderr: no traceback and no warning ahead of the error
    code, out = _fuzz_run(argv)
    if code == 0:
        assert "classification" in parsed(out)


_SEARCH_RANGES = {  # a search's own options: negative, 0, tiny or coarse tolerances, tiny or huge radii
    "--bisect-tol": st.one_of(st.floats(-1e3, -1e-300), st.just(0.0), st.floats(1e-300, 1e-14),
                              st.floats(1e-6, 1e-2)),
    "--r-max": st.one_of(st.floats(1e-300, 1e-2), st.floats(1e290, 1e308)),
}


@st.composite
def _search_argv(draw):
    """shoot --d --n --c in range, then --bisect-tol and --r-max, each drawn or left out."""
    argv = ["shoot"]
    for flag, values in [(f, _SHOOT_RANGES[f]) for f in ("--d", "--n", "--c")] + [
            *_SEARCH_RANGES.items()]:
        if flag in _SEARCH_RANGES and draw(st.booleans()):
            continue
        value = draw(_spelled(values))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=12)
@given(_search_argv())
@example(_SHOOT + ["--bisect-tol", "-1"])  # ran as 0
@example(_SHOOT + ["--bisect-tol", "0", "--r-max", "1e-300"])
@example(_SHOOT + ["--bisect-tol", "1e-300", "--r-max", "1e300"])
@example(_SHOOT + ["--r-max", "1e307"])  # the widening cap overflows
def test_shoot_search_argv_fuzz(argv):
    # any search command line ends in an exit code with at most one line on
    # stderr: no traceback and no warning ahead of the error
    code, out = _fuzz_run(argv)
    if code == 0:
        assert "mu_c" in parsed(out)


def _cells(values):
    """A sweep axis of at most 2 cells: a comma list, or a lo:hi:count range."""
    return st.one_of(
        st.lists(_spelled(values), min_size=1, max_size=2).map(_comma),
        st.tuples(_spelled(values), _spelled(values), st.integers(0, 2)).map(
            lambda r: ":".join(map(str, r))))


_SWEEP_FLAGS = {  # flag -> valid values; the wild ones below, and a wild axis also holds <= 2 cells
    "--d": _cells(_SHOOT_RANGES["--d"]),
    "--n": _cells(_SHOOT_RANGES["--n"]),
    "--c": _cells(st.floats(1.55, 1.95)),  # below every n
    "--bisect-tol": _spelled(st.floats(1e-6, 1e-2)),
    "--r-max": _spelled(_SHOOT_RANGES["--r-max"]),
    "--jobs": st.just("1"),
}
_SWEEP_WILD = {
    "--bisect-tol": st.one_of(_ANY_NUMBER, _spelled(_SEARCH_RANGES["--bisect-tol"])),
    "--r-max": st.one_of(_ANY_NUMBER, _spelled(_SEARCH_RANGES["--r-max"])),
    "--jobs": st.sampled_from(["-1", "0", "1.5", "x", "", "nan", "1e0", "-0"]),
}
_AXIS_WILD = st.one_of(_ANY_NUMBER, st.tuples(
    _ANY_NUMBER, _ANY_NUMBER, st.sampled_from(["-1", "0", "2", "1.5", "x", "10001"])).map(
        lambda r: ":".join(r)))


@st.composite
def _sweep_argv(draw):
    """sweep --d --n --c [--bisect-tol] [--r-max] [--jobs], as '--flag value', '--flag=value'
    or '-j value', each value valid for its flag but for at most one flag, whose value may be
    anything; never more than one worker."""
    wild, argv = draw(st.sampled_from([None, *_SWEEP_FLAGS])), ["sweep"]
    for flag, values in _SWEEP_FLAGS.items():
        if flag not in ("--d", "--n", "--c", wild) and draw(st.booleans()):
            continue
        value = draw(_SWEEP_WILD.get(flag, _AXIS_WILD) if flag == wild else values)
        spelled = st.sampled_from([[f"{flag}={value}"], [flag, value]]
                                  + [["-j", value]] * (flag == "--jobs"))
        argv += draw(spelled)
    return argv


@settings(max_examples=12, deadline=None)
@given(_sweep_argv())
@example(["sweep", "--d", "2.2e-311", "--n", "2.5", "--c", "1.7"])  # mu_i overflowed with warnings
def test_sweep_argv_fuzz(tmp_path_factory, argv):
    # any sweep command line ends in an exit code with at most one line on
    # stderr: no traceback and no warning ahead of the error; a failed cell
    # is a row of sweep.csv
    out_dir = tmp_path_factory.getbasetemp() / "sweep-fuzz"
    code, out = _fuzz_run(argv + ["-o", str(out_dir)])
    if code == 0:
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + int(parsed(out)["rows"])


def test_missing_snapshot_file_is_io_error(tmp_path):
    code, _, _ = run_cli([
        "evolve", "--n-points", "16", "--n", "2", "--dt", "0.1", "--t-end", "0.1",
        "--init", f"file:{tmp_path / 'absent.bin'}", "-o", str(tmp_path / "x"),
    ])
    assert code == 3


def test_refused_snapshot_grid_is_io_error(tmp_path):
    # an odd point count used to escape as "config error" with exit code 1
    bad = tmp_path / "bad.bin"
    write_snapshot(Field.constant(TorusGrid((16,), (2.0 * np.pi,)), 1.0), bad)
    raw = bytearray(bad.read_bytes())
    raw[24:32] = (15).to_bytes(8, "little")
    bad.write_bytes(bytes(raw[:-8]))
    code, _, err = run_cli([
        "evolve", "--n-points", "16", "--n", "2", "--dt", "0.1", "--t-end", "0.1",
        "--init", f"file:{bad}", "-o", str(tmp_path / "x"),
    ])
    assert code == 3
    assert err.startswith("io error:") and "bad.bin" in err


def test_sweep_order_and_failure_rows(tmp_path):
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli([
        "sweep", "--d", "1,2", "--n", "2.5", "--c", "1.6,1.5",
        "--jobs", "2", "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert info["rows"] == "4"
    assert info["failures"] == "2"
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "d,n,c,mu_c,Q_tau,k,c_bar,error"
    cells = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[2]) for row in cells] == [
        ("1.0", "1.6"), ("1.0", "1.5"), ("2.0", "1.6"), ("2.0", "1.5")
    ]
    for row in cells:
        if row[2] == "1.6":
            assert row[7] == ""
            assert float(row[3]) < 0.0
            assert 0.0 < float(row[4]) < 1.0
        else:
            assert row[7].startswith("ValueError")
            assert "," not in row[7]


@pytest.mark.parametrize("cells, cpus, processes", [
    ("1.6,1.5", 8, [2]), ("1.6,1.5", 1, []), ("1.6", 8, []), ("1:2:0", 8, []),
], ids=["two-cells", "one-cpu", "one-cell", "no-cells"])
def test_sweep_jobs_are_capped(tmp_path, monkeypatch, cells, cpus, processes):
    # -j asks for at most one worker process per cell and per CPU, and one
    # worker runs in process; Pool(processes=64) was started for any sweep
    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, task, items):
            return [task(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, err = run_cli(["sweep", "--d", "1", "--n", "2.5", "--c", cells, "-j", "64",
                              "-o", str(tmp_path / "sweep")])
    assert (code, err) == (0, "")
    assert asked == processes
    assert parsed(out)["rows"] == str(0 if ":" in cells else len(cells.split(",")))


_COARSE = ["--d", "2.76528", "--n", "2.683353", "--c", "1.55", "--bisect-tol"]


@pytest.mark.parametrize("tol, message", [
    ("5e-3", "ProfileError: the final shot's tail reads no limit at r = 6.87141; lower "
             "bisect_tol=0.005 to carry it further down its tail"),
    ("1e-3", "TailTooShort: only 0 samples within (1e-10, 1e-2) of Q_tau, and the last, at "
             "r = 8.77811, has Q - Q_tau = 0.0124; a smaller bisect_tol carries the final shot "
             "further down its tail"),
])
def test_coarse_bisect_tol_is_named(tmp_path, tol, message):
    # a mu_c this far above the critical curvature gives a final shot that
    # turns early, so its tail reads mean nothing; the error names the option
    code, out, err = run_cli(["shoot", *_COARSE, tol])
    assert (code, out, err) == (2, "", f"numerical failure: {message}\n")
    # a sweep cell fails the same way, with no numbers: all or nothing
    code, out, _ = run_cli(["sweep", *_COARSE, tol, "-o", str(tmp_path / "sweep")])
    row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1]
    assert row == "2.76528,2.683353,1.55,,,,," + message.replace(",", ";")
    assert (code, parsed(out)) == (0, {"rows": "1", "failures": "1"})


def test_unsettled_shot_names_the_public_error(tmp_path):
    # a shot still descending at 32 r_max used to be reported under the
    # library's private subclass name, `_Unsettled`
    code, _, err = run_cli([
        "shoot", "--d", "7", "--n", "2.8", "--c", "2.0", "--mu", "-0.005645811857816623",
        "--r-max", "0.5",
    ])
    assert code == 2
    assert err.startswith("numerical failure: Indeterminate: no event fired by r_max=16.0")
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli([
        "sweep", "--d", "7", "--n", "2.8", "--c", "2.0", "--r-max", "0.5", "-o", str(out_dir),
    ])
    assert code == 0
    row = (out_dir / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[7].startswith("Indeterminate: no event fired by r_max=16.0")


def test_single_shot_widens_as_a_search_shot_does():
    # this shot is still descending at r = 200; the single shot exited 2
    # there while find_mu_c's search continued it to its crossing
    argv = ["shoot", "--d", "7", "--n", "2.8", "--c", "2.0", "--mu", "-0.005645811857816623"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert parsed(out)["classification"] == "crossed_floor"
    assert parsed(out)["r_star"] == "1279.0475027225377"
    # a search shot: integrate_shot on r_max without samples
    p = ProfileParams(d=7.0, n=2.8, c=2.0, mu=-0.005645811857816623)
    outcome, _ = integrate_shot(p, r_max=200.0, keep_samples=False)
    assert repr(outcome.r_star) == parsed(out)["r_star"]


def test_embedding_a_single_shot_names_its_archive(tmp_path):
    # a single shot's archive has Q_tau = nan, and embedding it used to fail
    # with "scale factor must be positive", naming neither the file nor Q_tau
    shot = tmp_path / "shot"
    assert run_cli(_SHOOT + ["--mu", "-0.021", "-o", str(shot)])[0] == 0
    code, out, err = run_cli(["embed", "--profile", str(shot), "--n-points", "16,16,16",
                              "--lengths", "240", "-o", str(tmp_path / "embedded")])
    assert (code, out) == (1, "")
    assert err == f"config error: {shot}: profile has no finite Q_tau to normalize by, got nan\n"


def test_embed_cli(critical_run, tmp_path):
    run_dir, _ = critical_run
    out_dir = tmp_path / "embedded"
    code, out, _ = run_cli([
        "embed", "--profile", str(run_dir), "--n-points", "48,48,48",
        "--lengths", "240", "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    fld = read_snapshot(out_dir / "snap_000000.bin")
    assert fld.grid.shape == (48, 48, 48)
    assert float(info["peak"]) == pytest.approx(fld.values.max(), rel=1e-12)
    assert float(info["min"]) >= 1.0 - 1e-12
    meta = json.loads((out_dir / "snap_000000.json").read_text())
    assert meta["t"] == 0.0 and np.isfinite(meta["monitor"])


def test_embed_reports_the_public_monitor_and_mass(embed_profiles, tmp_path):
    # the sidecar's monitor and the reported mass are the public functions of
    # the embedded field, bit for bit, at the default index; evolve's log rows
    # are checked the same way in test_evolution.py
    out_dir = tmp_path / "embedded"
    code, out, _ = run_cli(["embed", "--profile", str(embed_profiles[2]), "--n-points", "64,64",
                            "--lengths", "150", "-o", str(out_dir)])
    assert code == 0
    fld, info = read_snapshot(out_dir / "snap_000000.bin"), parsed(out)
    sidecar = json.loads((out_dir / "snap_000000.json").read_text())
    s, stats = monitor_index(None, fld.grid), field_stats(fld)
    assert s == 5.0  # d/2 + floor(d/2) + 3 at d = 2
    assert sidecar["monitor"] == hs_norm(fld - 1.0, s) + stats.inv_sup
    assert float(info["mass"]) == measure_mass(fld)
    assert (float(info["peak"]), float(info["min"])) == (stats.max, stats.min)


def test_embed_on_a_huge_1d_torus_prints_no_warning(embed_profiles, tmp_path):
    # past a side of about 1.3e154 the squared distances overflowed, and NumPy
    # printed "RuntimeWarning: overflow encountered in square"; those points
    # lie outside the profile, where the field is 1
    out_dir = tmp_path / "huge"
    proc = _main_in_child(["embed", "--profile", str(embed_profiles[1]), "--n-points", "64",
                           "--lengths", "1e300", "-o", str(out_dir)])
    assert (proc.returncode, proc.stderr) == (0, "")
    vals = read_snapshot(out_dir / "snap_000000.bin").values
    assert np.flatnonzero(vals != 1.0).tolist() == [32]  # the center, at L/2
    assert vals[32] == float(parsed(proc.stdout)["peak"])


def _with_fit_keys(archive: Path, out: Path, k: float, M: float) -> Path:
    """The archive in the older format, whose metadata also held Q_star, k and M."""
    meta, rest = archive.read_text().split("\n", 1)
    n = read_profile_csv(archive).params.n
    out.write_text(f"{meta}, Q_star={q_star(n)!r}, k={k!r}, M={M!r}\n{rest}")
    return out


def test_a_stored_fit_that_disagrees_with_the_rows_is_not_trusted(embed_profiles, tmp_path):
    # the d = 2 tail misses 1 by about 1.6e-6 at side 80; the reader used to
    # take k and M as written, and an archive edited to k=1.0 or M=1e-9 embedded
    archive = embed_profiles[2] / "profile.csv"
    fit = read_profile_csv(archive).decay
    argv = ["embed", "--n-points", "32,32", "--lengths", "80,80", "-o", str(tmp_path / "out")]
    want = run_cli(argv + ["--profile", str(archive)])
    assert want[:2] == (2, "") and want[2].startswith("numerical failure: DomainTooSmall: ")
    for k, M in [(1.0, fit.M), (fit.k, 1e-9)]:
        edited = _with_fit_keys(archive, tmp_path / "edited.csv", k, M)
        assert run_cli(argv + ["--profile", str(edited)]) == want


def test_an_archive_with_fit_keys_reads_and_embeds_as_one_without(embed_profiles, tmp_path):
    archive = embed_profiles[2] / "profile.csv"
    fit = read_profile_csv(archive).decay
    older = _with_fit_keys(archive, tmp_path / "older.csv", fit.k, fit.M)
    assert read_profile_csv(older).decay == fit is not None
    fields = []
    for i, path in enumerate([archive, older]):
        argv = ["embed", "--profile", str(path), "--n-points", "64,64", "--lengths", "150"]
        assert run_cli(argv + ["-o", str(tmp_path / str(i))])[0] == 0
        fields.append((tmp_path / str(i) / "snap_000000.bin").read_bytes())
    assert fields[0] == fields[1]


_SIDE = st.one_of(st.floats(10.0, 1e3), st.floats(1e-300, 1e-3), st.floats(1e3, 1e308))


@st.composite
def _lengths(draw) -> str:
    """--lengths as a comma list or a lo:hi:count range of moderate, tiny or huge sides."""
    if draw(st.booleans()):
        return ",".join(map(repr, draw(st.lists(_SIDE, min_size=1, max_size=3))))
    return f"{draw(_SIDE)!r}:{draw(_SIDE)!r}:{draw(st.integers(-1, 4))}"


@st.composite
def _embed_argv(draw):
    """embed's --n-points (1 to 3 axes of at most 64 points) and --lengths (left
    out, or drawn by _lengths)."""
    points = draw(st.lists(st.one_of(st.sampled_from([4, 8, 16, 32, 64]), st.integers(-2, 64)),
                           min_size=1, max_size=3))
    argv = ["--n-points", _comma(points)]
    if draw(st.booleans()):
        argv += ["--lengths=" + draw(_lengths())]
    return argv


@settings(max_examples=40)
@given(st.sampled_from([1, 2]), _embed_argv())
@example(2, ["--n-points", "64,64", "--lengths", "1e308"])  # mass inf, two RuntimeWarnings
@example(2, ["--n-points", "64,64", "--lengths", "1e-200,1e-200"])  # volume 0
@example(1, ["--n-points", "64", "--lengths", "1e300"])  # RuntimeWarning: overflow in square
@example(1, ["--n-points", "64", "--lengths=1:inf:3"])  # RuntimeWarning from linspace
@example(1, ["--n-points", "64", "--lengths=0:1:10000000000000"])  # MemoryError, a traceback
def test_embed_argv_fuzz(embed_profiles, tmp_path_factory, d, argv):
    # any embed command line ends in an exit code with at most one line on
    # stderr: no traceback and no warning ahead of the error
    out_dir = tmp_path_factory.getbasetemp() / "embed-fuzz"
    code, out = _fuzz_run(["embed", "--profile", str(embed_profiles[d]), *argv,
                           "-o", str(out_dir)])
    if code == 0:
        assert list(parsed(out)) == ["peak", "min", "mass"]


_WILD = st.sampled_from(["1e-300", "1e300", "nan", "inf", "-inf", "-0.5", "0", "-0", "x", ""])
_EXTREME = st.sampled_from(["1", "0.5", "0", "-1", "1e-300", "1e300", "1e308", "nan", "inf"])
_POINTS = st.lists(st.one_of(st.sampled_from([4, 8, 16]), st.integers(-2, 16)),
                   min_size=1, max_size=2).map(_comma)


@st.composite
def _init_spec(draw) -> str:
    """constant: or modes: with extreme values; a mode's k has 1 or 2 components."""
    if draw(st.booleans()):
        return "constant:" + draw(_EXTREME)
    modes = [f"amp={draw(_EXTREME)},k={':'.join(map(str, ks))}"
             + (f",phase={draw(_EXTREME)}" if draw(st.booleans()) else "")
             for ks in draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                                     max_size=2))]
    return ";".join([f"modes:base={draw(_EXTREME)}", *modes])


def _argv(draw, words: list[str], flags: dict[str, tuple], required: tuple[str, ...]):
    """words, then each flag of flags (flag -> (valid values, wild values)) as
    '--flag value' or '--flag=value'.  None, one or two flags, drawn first,
    take a wild value; each other flag takes a valid one, and one not in
    required may be left out."""
    n_wild, argv = draw(st.integers(0, min(2, len(flags)))), list(words)
    wild = draw(st.sets(st.sampled_from(sorted(flags)), min_size=n_wild, max_size=n_wild))
    for flag, (valid, wilder) in flags.items():
        if flag not in wild and flag not in required and draw(st.booleans()):
            continue
        value = draw(wilder if flag in wild else valid)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def _evolve_argv(draw) -> list[str]:
    """evolve on 1 or 2 axes of at most 16 points, for at most 20 steps when dt
    and t_end are valid; a wild dt or t_end (tiny, huge, nan, inf or negative)
    either refuses the run or leaves it one step."""
    axes, t_end = draw(st.integers(1, 2)), draw(st.floats(1e-3, 1.0))
    dt = t_end / draw(st.integers(1, 20))
    points = st.lists(st.sampled_from([4, 8, 16]), min_size=axes, max_size=axes).map(_comma)
    k1, k2 = ":".join(["1"] * axes), ":".join(["-2"] * axes)
    return _argv(draw, ["evolve"], {
        "--n-points": (points, _POINTS),
        "--lengths": (_spelled(st.floats(1.0, 100.0)), _lengths()),
        "--n": (_spelled(st.floats(2.0, 3.0)), _ANY_NUMBER),
        "--dt": (st.just(repr(dt)), _WILD),
        "--t-end": (st.just(repr(t_end)), _WILD),
        "--init": (st.sampled_from(["constant:1", f"modes:base=1;amp=0.2,k={k1}",
                                    f"modes:base=1.5;amp=0.3,k={k2}"]), _init_spec()),
        "--threshold": (_spelled(st.floats(1.0, 1e6)), _WILD),
        "--elliptic-tol": (st.sampled_from(["1e-10", "1e-6", "1e-13"]),
                           st.one_of(_WILD, st.sampled_from(["1e-16", "0.5", "1e3"]))),
        "--snapshot-every": (st.integers(0, 25).map(str), st.sampled_from(["-1", "x", "1.5"])),
    }, required=("--n-points", "--n", "--dt", "--t-end"))


@settings(max_examples=40)
@given(_evolve_argv())
def test_evolve_argv_fuzz(tmp_path_factory, argv):
    # any evolve command line ends in an exit code with at most one line on
    # stderr: no traceback and no warning ahead of the error
    code, out = _fuzz_run(argv + ["-o", str(tmp_path_factory.getbasetemp() / "evolve-fuzz")])
    if code == 0:
        assert "verdict" in parsed(out)


@st.composite
def _dispersion_argv(draw) -> list[str]:
    """diagnose dispersion on 1 or 2 axes of at most 16 points; the mode has a
    component along the last axis."""
    axes = draw(st.integers(1, 2))
    points = st.lists(st.sampled_from([4, 8, 16]), min_size=axes, max_size=axes).map(_comma)
    mode = st.tuples(st.lists(st.integers(-2, 2), min_size=axes - 1, max_size=axes - 1),
                     st.sampled_from([-2, -1, 1, 2])).map(lambda m: _comma([*m[0], m[1]]))
    return _argv(draw, ["diagnose", "dispersion"], {
        "--n-points": (points, _POINTS),
        "--lengths": (_spelled(st.floats(1.0, 100.0)), _lengths()),
        "--n": (_spelled(st.floats(2.0, 3.0)), _ANY_NUMBER),
        "--mode": (mode, st.one_of(st.lists(st.integers(-3, 3), max_size=3).map(_comma),
                                   st.sampled_from(["9" * 30, "x"]))),
    }, required=("--n-points", "--n", "--mode"))


@settings(max_examples=40)
@given(_dispersion_argv())
@example(["diagnose", "dispersion", "--n-points", "4,4", "--lengths", "10.0:10.0:1", "--n",
          "1e-307", "--mode", "0,-2"])
@example(["diagnose", "dispersion", "--n-points", "4,4", "--lengths", "10.0,1.43e154",
          "--n", "2.0", "--mode", "0,-2"])
def test_dispersion_argv_fuzz(tmp_path_factory, argv):
    # any dispersion command line ends in an exit code with at most one line
    # on stderr: no traceback and no warning ahead of the error.  An n far
    # below [2, 3] made a period whose t_end overflowed, with a RuntimeWarning;
    # a period near 1e154 overflowed the phase fit, with two warnings.  Fewer
    # steps per period keep each run short; t_end stays PERIODS periods
    out_dir = tmp_path_factory.getbasetemp() / "disp-fuzz"
    with mock.patch.object(magma_lab.diagnostics, "STEPS_PER_PERIOD", 16):
        code, out = _fuzz_run(argv + ["-o", str(out_dir)])
    if code == 0:
        assert "omega_measured" in parsed(out)


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory) -> list[str]:
    """A 20-step evolve run directory, a missing path, a file and an empty directory."""
    root = tmp_path_factory.mktemp("fuzz-runs")
    code, _, _ = run_cli(["evolve", "--n-points", "16", "--n", "2.5", "--dt", "0.05",
                          "--t-end", "1", "--init", "modes:base=1;amp=0.2,k=1",
                          "--snapshot-every", "2", "-o", str(root / "run")])
    assert code == 0
    (root / "file").write_text("not a run\n")
    (root / "empty").mkdir()
    return [str(root / name) for name in ("run", "absent", "file", "empty")]


@pytest.mark.parametrize("command, key", [("track", "speed"), ("energy", "max_relative_drift")])
@settings(max_examples=40)
@given(data=st.data())
def test_track_and_energy_argv_fuzz(fuzz_runs, tmp_path_factory, command, key, data):
    # any track or energy command line ends in an exit code with at most one
    # line on stderr: no traceback and no warning ahead of the error
    run = data.draw(st.sampled_from(fuzz_runs))
    argv = ["diagnose", command, "--run", run]
    if command == "energy":
        argv = _argv(data.draw, argv, {"--n": (_spelled(st.floats(2.0, 3.0)), _ANY_NUMBER)},
                     required=())
    code, out = _fuzz_run(argv + ["-o", str(tmp_path_factory.getbasetemp() / f"{command}-fuzz")])
    if code == 0:
        assert run == fuzz_runs[0] and key in parsed(out)


def test_embed_domain_too_small(critical_run, tmp_path):
    run_dir, _ = critical_run
    code, _, err = run_cli([
        "embed", "--profile", str(run_dir), "--n-points", "16,16,16",
        "--lengths", "40", "-o", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "DomainTooSmall" in err


def test_embed_dimension_mismatch(critical_run, tmp_path):
    run_dir, _ = critical_run
    code, _, _ = run_cli([
        "embed", "--profile", str(run_dir), "--n-points", "32",
        "--lengths", "150", "-o", str(tmp_path / "x"),
    ])
    assert code == 1


def test_diagnose_track(evolve_run, tmp_path):
    out_dir = tmp_path / "track"
    code, out, _ = run_cli([
        "diagnose", "track", "--run", str(evolve_run), "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert info["snapshots"] == "11"
    lines = (out_dir / "peaks.csv").read_text().splitlines()
    assert lines[0] == "t,position"
    assert len(lines) == 1 + 11
    assert np.isfinite(float(info["speed"]))


def test_diagnose_track_missing_run(tmp_path):
    code, _, _ = run_cli(["diagnose", "track", "--run", str(tmp_path / "none")])
    assert code == 3


@pytest.mark.parametrize("n_points, length", [("16", "3.0"), ("32", "3.0")],
                         ids=["other-n-points", "other-length"])
def test_snapshots_on_different_grids_are_refused(tmp_path, n_points, length):
    # snapshots 0-2 of one run and 3-5 of another used to end in an
    # IndexError from track_peak, or in a speed or an energy drift
    runs = {}
    for name, argv in [("a", ["--n-points", "32"]),
                       ("b", ["--n-points", n_points, "--lengths", length])]:
        runs[name] = tmp_path / name
        code, _, _ = run_cli(["evolve", *argv, "--n", "2", "--dt", "0.01", "--t-end", "0.05",
                              "--init", "modes:base=1;amp=0.2,k=1", "--snapshot-every", "1",
                              "-o", str(runs[name])])
        assert code == 0
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for i in range(6):
        for ext in (".bin", ".json"):
            name = f"snap_{i:06d}{ext}"
            shutil.copy(runs["a" if i < 3 else "b"] / name, mixed / name)
    for argv in (["diagnose", "track", "--run", str(mixed)],
                 ["diagnose", "energy", "--run", str(mixed), "--n", "2"]):
        code, out, err = run_cli(argv + ["-o", str(tmp_path / "out")])
        assert code == 3 and out == ""
        assert err.splitlines() == [err.strip()] and "snap_000003.bin" in err


def test_diagnose_energy(evolve_run, tmp_path):
    out_dir = tmp_path / "energy"
    code, out, _ = run_cli([
        "diagnose", "energy", "--run", str(evolve_run), "--n", "2",
        "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert float(info["max_relative_drift"]) < 1e-5
    lines = (out_dir / "energy.csv").read_text().splitlines()
    assert len(lines) == 1 + 11


def test_energy_takes_no_gradient_weight(evolve_run, tmp_path):
    # the energy has no weight m: --m and a config key m are refused
    cfg = tmp_path / "energy.cfg"
    cfg.write_text("m = 0\n")
    energy = ["diagnose", "energy", "--run", str(evolve_run), "--n", "2"]
    for argv in (energy + ["--m", "0"], energy + ["--config", str(cfg)]):
        code, out, err = run_cli(argv)
        assert (code, out, len(err.splitlines())) == (1, "", 1), err
    code, out, _ = run_cli(["diagnose", "energy", "--help"])
    assert code == 0 and "--n V" in out and "--m" not in out


@pytest.mark.parametrize("text", ["{not json", '{"t": true}', "\udcff",
                                  pytest.param("[" * 100_000, id="deep")])
def test_malformed_sidecar_is_io_error(evolve_run, tmp_path, text):
    # broken JSON used to exit 1 as a config error that named no file, a
    # boolean t was read as 1.0, and JSON nested past the recursion limit
    # exited 2 as a "numerical failure: RecursionError"
    run = tmp_path / "run"
    shutil.copytree(evolve_run, run)
    sidecar = run / "snap_000000.json"
    sidecar.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, _, err = run_cli(["diagnose", "energy", "--run", str(run), "--n", "2"])
    assert code == 3
    assert err.startswith("io error:") and str(sidecar) in err


@pytest.mark.parametrize("command", ["shoot", "sweep", "embed", "track", "energy",
                                     "dispersion"])
def test_manifest_lists_every_artifact(command, critical_run, evolve_run, tmp_path):
    shoot_dir, _ = critical_run
    out_dir = shoot_dir if command == "shoot" else tmp_path / command
    argv = {
        "shoot": None,
        "sweep": ["sweep", "--d", "1", "--n", "2.5", "--c", "1.6"],
        "embed": ["embed", "--profile", str(shoot_dir), "--n-points", "48,48,48",
                  "--lengths", "240"],
        "track": ["diagnose", "track", "--run", str(evolve_run)],
        "energy": ["diagnose", "energy", "--run", str(evolve_run), "--n", "2"],
        "dispersion": ["diagnose", "dispersion", "--n-points", "16", "--n", "2",
                       "--mode", "1"],
    }[command]
    if argv is not None:
        assert run_cli(argv + ["-o", str(out_dir)])[0] == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(
        p.name for p in out_dir.iterdir() if p.name != "manifest.json"
    )
    if command == "embed":
        sidecar = json.loads((out_dir / "snap_000000.json").read_text())
        assert sidecar["config_hash"] == manifest["config_hash"]


_REPORT_KEYS = {
    "shoot": ["Q_star", "Q1", "mu1_min", "mu2_min", "mu3_min", "mu_c", "Q_tau", "c_bar",
              "decay_k", "decay_M"],
    "shoot-no-fit": ["Q_star", "Q1", "mu1_min", "mu2_min", "mu3_min", "mu_c", "Q_tau",
                     "c_bar", "decay_k"],
    "shot-crossing": ["classification", "r_star"],
    "shot-turning": ["classification", "tau", "subcase"],
    "evolve": ["verdict", "final_monitor", "snapshots"],
    "evolve-threshold": ["verdict", "t_event", "final_monitor", "snapshots"],
    "sweep": ["rows", "failures"],
    "embed": ["peak", "min", "mass"],
    "dispersion": ["omega_formula", "omega_measured", "relative_error"],
    "track": ["snapshots", "speed"],
    "energy": ["energy_initial", "energy_final", "max_relative_drift"],
}


@pytest.mark.parametrize("case", list(_REPORT_KEYS))
def test_report_keys_in_order(case, critical_run, evolve_run, tmp_path, monkeypatch):
    # every line is "key = value" in a fixed order; a value of None (tau of a
    # crossing shot, t_event of a completed run, decay_M without a fit) prints
    # no line, and counts print as integers
    shoot = ["shoot", "--d", "3", "--n", "2.5", "--c", "1.7"]
    evolve = ["evolve", "--n-points", "16", "--n", "2", "--dt", "0.05", "--t-end", "0.1",
              "--init", "modes:base=1;amp=0.2,k=1"]
    argv = {
        "shoot": shoot + ["--bisect-tol", "1e-6"],
        "shoot-no-fit": shoot + ["--bisect-tol", "1e-6"],
        "shot-crossing": shoot + ["--mu", "-0.021"],
        "shot-turning": shoot + ["--mu", "-0.02"],
        "evolve": evolve,
        "evolve-threshold": evolve + ["--threshold", "0.5"],
        "sweep": ["sweep", "--d", "1", "--n", "2.5", "--c", "1.6"],
        "embed": ["embed", "--profile", str(critical_run[0]), "--n-points", "48,48,48",
                  "--lengths", "240"],
        "dispersion": ["diagnose", "dispersion", "--n-points", "16", "--n", "2",
                       "--mode", "1"],
        "track": ["diagnose", "track", "--run", str(evolve_run)],
        "energy": ["diagnose", "energy", "--run", str(evolve_run), "--n", "2"],
    }[case]
    if case == "shoot-no-fit":
        monkeypatch.setattr(magma_lab.profile, "decay_check", lambda sol: None)
    code, out, err = run_cli(argv + ["-o", str(tmp_path / "run")])
    assert (code, err) == (0, "")
    lines = [line.partition(" = ") for line in out.splitlines()]
    assert [key for key, sep, _ in lines if sep] == _REPORT_KEYS[case]
    assert len(lines) == len(_REPORT_KEYS[case])
    counts = [value for key, _, value in lines if key in ("rows", "failures", "snapshots")]
    assert all(value.isdigit() for value in counts)


def test_failed_write_prints_no_report(evolve_run, tmp_path):
    # the run is written before the report is printed, so a run directory
    # that cannot be made leaves stdout empty
    target = tmp_path / "a_file"
    target.write_text("")
    for argv in (["shoot", "--d", "3", "--n", "2.5", "--c", "1.7", "--mu", "-0.021"],
                 ["diagnose", "track", "--run", str(evolve_run)]):
        code, out, err = run_cli(argv + ["-o", str(target)])
        assert (code, out) == (3, "")
        assert err.startswith("io error:") and err.count("\n") == 1
        assert "Traceback" not in err



@pytest.mark.parametrize("out, refused", [("a_file", True), ("a_file/run", True),
                                          ("new/run", False)])
def test_unusable_out_is_refused_before_the_handler_runs(tmp_path, monkeypatch, out, refused):
    # an --out that is, or lies under, a regular file used to be found only
    # when the run was written, after the handler had done all its work
    (tmp_path / "a_file").write_text("")
    ran = []
    monkeypatch.setattr(magma_lab.cli, "_COMMANDS", [
        cmd._replace(handler=lambda cfg, ns, words=cmd.words: ran.append(words) or ([], []))
        for cmd in magma_lab.cli._COMMANDS])
    code, stdout, err = run_cli(["sweep", "--d", "1,2", "--n", "2.5", "--c", "1.6,1.7",
                                 "-o", str(tmp_path / out)])
    if refused:
        assert (code, stdout, ran) == (3, "", [])
        assert err == f"io error: not a directory: {tmp_path / 'a_file'}\n"
        assert (tmp_path / "a_file").read_text() == "" and sorted(os.listdir(tmp_path)) == ["a_file"]
    else:
        assert (code, ran) == (0, [("sweep",)])
        assert (tmp_path / out / "manifest.json").is_file()

_META = "# d=1.0, n=2.5, c=1.7, mu_c=-0.05, Q_tau=0.7, Q_star=0.3, k=nan, M=nan"
_ROWS = "r,Q,Q_r,Q_rr\n0.0,1.0,0.0,-0.05\n1.0,0.98,-0.04,-0.03\n"


@pytest.mark.parametrize(
    "kind, text",
    [
        ("profile", _META + "\n"),
        ("profile", _META.replace(", c=1.7", "") + "\n" + _ROWS),
        ("profile", _META + "\nr,Q,Q_r,Q_rr\n0.0,1.0,0.0\n"),
        ("profile", _META + "\nr,Q,Q_r,Q_rr\n"),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=0.0") + "\n" + _ROWS),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=1e-300")
         .replace("k=nan, M=nan", "k=1.0, M=1.0") + "\n" + _ROWS),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=1e-300") + "\n" + _ROWS),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=1e300") + "\n" + _ROWS),
        # a Q_tau below Q_star was read, and its embedding overflowed with a warning
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=1e-20")
         .replace("k=nan, M=nan", "k=1.0, M=1.0") + "\n" + _ROWS),
        ("sidecar", '{"step": 0}\n'),
        ("sidecar", '{"t": null}\n'),
        ("sidecar", '{"t": NaN}\n'),
        ("sidecar", "[0.0]\n"),
    ],
    ids=["meta-only", "no-c", "short-row", "no-rows", "zero-Q_tau", "tiny-Q_tau",
         "tiny-Q_tau-no-fit", "huge-Q_tau", "below-Q_star", "no-t", "null-t", "nan-t", "list"],
)
def test_malformed_archive_is_exit_code_not_traceback(tmp_path, kind, text):
    if kind == "profile":
        (tmp_path / "profile.csv").write_text(text)
        argvs = [["embed", "--profile", str(tmp_path / "profile.csv"),
                  "--n-points", "16", "--lengths", "1e300", "-o", str(tmp_path / "out")]]
    else:
        write_snapshot(Field.constant(TorusGrid.cubic(1, 16), 1.0),
                       tmp_path / "snap_000000.bin")
        (tmp_path / "snap_000000.json").write_text(text)
        argvs = [["diagnose", "track", "--run", str(tmp_path)],
                 ["diagnose", "energy", "--run", str(tmp_path), "--n", "2"]]
    for argv in argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv)
        assert code in (1, 3)
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []


def test_undecodable_input_names_the_file(tmp_path):
    # a byte that is not UTF-8 used to give "config error: 'utf-8' codec
    # can't decode byte 0xff ..." without naming the file
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"d = 3\n\xff\xfe = 2\n")
    csv = tmp_path / "profile.csv"
    csv.write_bytes((_META + "\n" + _ROWS).encode() + b"\xff\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for path, argv in [
        (cfg, ["shoot", "--config", str(cfg)]),
        (csv, ["embed", "--profile", str(csv), "--n-points", "16", "-o", str(tmp_path / "out")]),
    ]:
        proc = subprocess.run([sys.executable, "-m", "magma_lab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert f"config error: {path}: 'utf-8' codec" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_diagnose_dispersion(tmp_path):
    out_dir = tmp_path / "disp"
    code, out, _ = run_cli([
        "diagnose", "dispersion", "--n-points", "64", "--n", "2", "--mode", "1",
        "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert float(info["relative_error"]) < 1e-3
    payload = json.loads((out_dir / "dispersion.json").read_text())
    assert payload["omega_formula"] == pytest.approx(1.0)


@pytest.mark.parametrize("knob", ["epsilon", "periods", "steps_per_period"])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_dispersion_sampling_is_fixed(tmp_path, knob, given_as):
    # amplitude, periods and steps per period are constants of the measurement
    argv = ["diagnose", "dispersion", "--n-points", "16", "--n", "2", "--mode", "1"]
    if given_as == "flag":
        named = "--" + knob.replace("_", "-")
        argv += [named, "1"]
    else:
        named = f"unknown config key {knob!r}"
        (tmp_path / "cfg").write_text(f"{knob} = 1\n")
        argv += ["--config", str(tmp_path / "cfg")]
    code, out, err = run_cli(argv + ["-o", str(tmp_path / "run")])
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert named in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [pytest.param("--mode", "9" * 400, "mode numbers", id="mode-overflow")],
)
def test_dispersion_rejects_degenerate_sampling(tmp_path, flag, value, name):
    # a separate interpreter, so a NumPy RuntimeWarning would reach stderr;
    # a mode beyond the float range used to end in an OverflowError traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "magma_lab.cli", "diagnose", "dispersion",
         "--n-points", "16", "--n", "2", "--mode", "1", flag, value,
         "-o", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert name in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


_INIT_PIECES = st.one_of(
    st.sampled_from(["constant:", "modes:", "file:", "profile:", "base=", "amp=", "k=",
                     "phase=", ":", ";", ",", "=", "1", "-2", "0.25", "1:2", "nan", "inf",
                     "1e308", "1e400", "9" * 400, "-0"]),
    st.text(max_size=4),
)


@given(st.one_of(st.text(max_size=30), st.lists(_INIT_PIECES, max_size=12).map("".join)))
@example("modes:base=1;amp=0.1,k=" + "9" * 400)  # OverflowError from the wavevector
@example("modes:base=1;amp=1e308,k=1;amp=1e308,k=1")  # RuntimeWarning: overflow
@example("modes:base=1;amp=0.1,k=1,phase=inf")  # RuntimeWarning: invalid value
def test_init_grammar_fuzz(tmp_path_factory, spec):
    # any spec: a Field on the grid, or ValueError; a file or profile path
    # that is not there is an OSError.  At the CLI both are an exit code,
    # and a spec that passes leaves the error to the next check (dt = 0)
    kind, _, rest = spec.partition(":")
    if kind in ("file", "profile"):  # keep the reads inside a scratch directory
        spec = f"{kind}:{tmp_path_factory.getbasetemp()}/absent/{rest}"
    grid = TorusGrid((8,), (2.0 * np.pi,))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error is the one line on stderr
            got = _initial_field(spec, grid)
    except ValueError:
        want = 1
    except OSError:
        assert kind in ("file", "profile")
        want = 3
    else:
        assert isinstance(got, Field) and got.grid == grid
        want = 1
    code, _, err = run_cli(["evolve", "--n-points", "8", "--n", "2", "--dt", "0", "--t-end", "1",
                            f"--init={spec}", "-o", str(tmp_path_factory.getbasetemp() / "x")])
    assert code == want
    if want == 1:
        assert err.startswith("config error:")


_KV_PIECES = st.one_of(
    st.sampled_from(["d", "n-points", "r_max", "=", " = ", "#", "\n", "\r\n", " ", "1",
                     "nan", "==", "\x00", "\x0c", "\u2028"]),
    st.text(max_size=4),
)


@given(st.one_of(st.binary(max_size=120),
                 st.lists(_KV_PIECES, max_size=16).map(lambda ps: "".join(ps).encode())))
@example(b"d = 3\n\xff\xfe = 2\n")
@example(b"d = 3\nd=4\n")
@example(b"justakey\n")
def test_config_reader_fuzz(tmp_path_factory, raw):
    # any bytes: key = value pairs (keys with '_' for '-'), or a ValueError
    # that names the file
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        got = _read_kv_file(str(path))
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    lines = path.read_text().splitlines()
    for key, (value, line) in got.items():
        assert "-" not in key and key == key.strip() and value == value.strip()
        left, _, right = lines[line - 1].partition("=")  # the line named holds the pair
        assert left.strip().replace("-", "_") == key and right.strip() == value


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["t", "step", "x"]), inner,
                                                     max_size=3)), max_leaves=8)


@given(st.one_of(
    st.binary(max_size=80),
    _json_values().map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"t": _json_values()}).map(lambda v: json.dumps(v).encode()),
))
@example(b"[" * 100_000)  # RecursionError from the JSON decoder
@example(b'{"t": 1' + b"0" * 400 + b"}")
@example(b'{"t": Infinity}')
def test_sidecar_reader_fuzz(tmp_path_factory, raw):
    # any sidecar bytes: the snapshot comes back at a finite time, or a
    # SnapshotFormatError that names the sidecar
    run = tmp_path_factory.getbasetemp() / "sidecar-fuzz"
    run.mkdir(exist_ok=True)
    snap = Field.constant(TorusGrid.cubic(1, 8), 1.0)
    write_snapshot(snap, run / "snap_000000.bin")
    sidecar = run / "snap_000000.json"
    sidecar.write_bytes(raw)
    try:
        [(t, got)] = _load_run_snapshots(str(run))
    except SnapshotFormatError as exc:
        assert str(sidecar) in str(exc)
        return
    assert np.isfinite(t) and np.array_equal(got.values, snap.values)


_IMPORTS_PROBE = """
import contextlib, io, json, sys
import magma_lab.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))

run, profile = sys.argv[1:]
torus = ["--n-points", "16,16,16", "--lengths", "240"]
with contextlib.redirect_stdout(io.StringIO()):
    after_import = loaded()
    assert cli.main(["evolve", "--n-points", "16", "--n", "2", "--dt", "0.05", "--t-end", "0.15",
                     "--init", "modes:base=1;amp=0.1,k=1", "--snapshot-every", "1",
                     "-o", run]) == 0
    assert cli.main(["diagnose", "energy", "--run", run, "--n", "2"]) == 0
    assert cli.main(["embed", "--profile", profile, *torus, "-o", run + "_embedded"]) == 0
    assert cli.main(["evolve", *torus, "--n", "2.5", "--dt", "0.05", "--t-end", "0.1",
                     "--init", "profile:" + profile, "-o", run + "_profile"]) == 0
    after_torus = loaded()
    assert cli.main(["shoot", "--d", "3", "--n", "2.5", "--c", "1.7", "--mu", "-0.021"]) == 0
print(json.dumps([after_import, after_torus, loaded()]))
"""


def test_torus_commands_load_no_scipy(critical_run, tmp_path):
    # SciPy and multiprocessing load with the shooting code, not with the
    # command line: evolve, diagnose and embedding a stored profile run
    # without them
    profile = str(critical_run[0] / "profile.csv")
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE, str(tmp_path / "run"), profile],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, after_torus, after_shoot = json.loads(proc.stdout)
    assert after_import == after_torus == []
    assert "scipy.integrate" in after_shoot


def test_console_script_installed():
    # the installed script when there is one; the entry point it is made from,
    # and the module it runs, in every case
    exe = shutil.which("magma-lab")
    if exe is not None:
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
    assert 'magma-lab = "magma_lab.cli:main"' in scripts.splitlines()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "magma_lab.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, magma_lab.__version__ + "\n")
