"""End-to-end command line tests: config merging, artifacts, exit codes."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from magma_lab import (
    Field,
    SnapshotFormatError,
    TorusGrid,
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
    for line in ("adaptive = true", "step_tol = 1e-8"):
        cfg.write_text(f"n_points = 16\nn = 2\ndt = 0.1\nt_end = 0.1\n{line}\n")
        code, _, err = run_cli(["evolve", "--config", str(cfg), "-o", str(tmp_path / "x")])
        assert code == 1
        assert line.split(" = ")[0] in err


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
        _SHOOT + ["--bisect-tol", "nan"],
        _SHOOT + ["--bisect-tol", "inf"],
        ["diagnose", "dispersion", "--n-points", "32", "--n", "3", "--mode", "1",
         "--epsilon", "0.99", "--periods", "1", "--steps-per-period", "16"],
    ],
    ids=["cg-breakdown", "dt-inf", "t-end-inf", "steps-overflow", "s-monitor-nan",
         "r-max-nan", "r-max-inf", "r-max-0", "r-max-neg", "bisect-tol-nan",
         "bisect-tol-inf", "dispersion-positivity"],
)
def test_degenerate_values_end_in_exit_code(tmp_path, argv):
    # a separate interpreter with a timeout: some of these used to hang
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "magma_lab.cli", *argv, "-o", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (0, 1, 2, 3)
    if proc.returncode == 0:
        assert "verdict" in parsed(proc.stdout)
    assert "Traceback" not in proc.stderr


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


def test_unsettled_shot_names_the_public_error(tmp_path):
    # a shot still descending at r_max used to be reported under the
    # library's private subclass name, `_Unsettled`
    code, _, err = run_cli([
        "shoot", "--d", "7", "--n", "2.8", "--c", "2.0", "--mu", "-0.005645811857816623",
    ])
    assert code == 2
    assert err.startswith("numerical failure: Indeterminate: no event fired by r_max=200.0")
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli([
        "sweep", "--d", "7", "--n", "2.8", "--c", "2.0", "--r-max", "0.5", "-o", str(out_dir),
    ])
    assert code == 0
    row = (out_dir / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[7].startswith("Indeterminate: no event fired by r_max=16.0")


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
                       "--mode", "1", "--periods", "1", "--steps-per-period", "16"],
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


_META = "# d=1.0, n=2.5, c=1.7, mu_c=-0.05, Q_tau=0.7, Q_star=0.3, k=nan, M=nan"
_ROWS = "r,Q,Q_r,Q_rr\n0.0,1.0,0.0,-0.05\n1.0,0.98,-0.04,-0.03\n"


@pytest.mark.parametrize(
    "kind, text",
    [
        ("profile", _META + "\n"),
        ("profile", _META.replace(", k=nan", "") + "\n" + _ROWS),
        ("profile", _META.replace(", c=1.7", "") + "\n" + _ROWS),
        ("profile", _META + "\nr,Q,Q_r,Q_rr\n0.0,1.0,0.0\n"),
        ("profile", _META + "\nr,Q,Q_r,Q_rr\n"),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=0.0") + "\n" + _ROWS),
        ("profile", _META.replace("Q_tau=0.7", "Q_tau=1e-300").replace("k=nan", "k=1")
         + "\n" + _ROWS),
        ("sidecar", '{"step": 0}\n'),
        ("sidecar", '{"t": null}\n'),
        ("sidecar", '{"t": NaN}\n'),
        ("sidecar", "[0.0]\n"),
    ],
    ids=["meta-only", "no-k", "no-c", "short-row", "no-rows", "zero-Q_tau", "tiny-Q_tau",
         "no-t", "null-t", "nan-t", "list"],
)
def test_malformed_archive_is_exit_code_not_traceback(tmp_path, kind, text):
    if kind == "profile":
        (tmp_path / "profile.csv").write_text(text)
        argvs = [["embed", "--profile", str(tmp_path / "profile.csv"),
                  "--n-points", "16", "-o", str(tmp_path / "out")]]
    else:
        write_snapshot(Field.constant(TorusGrid.cubic(1, 16), 1.0),
                       tmp_path / "snap_000000.bin")
        (tmp_path / "snap_000000.json").write_text(text)
        argvs = [["diagnose", "track", "--run", str(tmp_path)],
                 ["diagnose", "energy", "--run", str(tmp_path), "--n", "2"]]
    for argv in argvs:
        code, _, err = run_cli(argv)
        assert code in (1, 3)
        assert "Traceback" not in err


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
        "--periods", "2", "--steps-per-period", "48", "-o", str(out_dir),
    ])
    assert code == 0
    info = parsed(out)
    assert float(info["relative_error"]) < 1e-3
    payload = json.loads((out_dir / "dispersion.json").read_text())
    assert payload["mode"] == [1]
    assert payload["omega_formula"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "flag, value, name",
    [("--steps-per-period", "0", "steps_per_period"), ("--periods", "nan", "periods"),
     pytest.param("--mode", "9" * 400, "mode numbers", id="mode-overflow")],
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

run = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    after_import = loaded()
    assert cli.main(["evolve", "--n-points", "16", "--n", "2", "--dt", "0.05", "--t-end", "0.15",
                     "--init", "modes:base=1;amp=0.1,k=1", "--snapshot-every", "1",
                     "-o", run]) == 0
    assert cli.main(["diagnose", "energy", "--run", run, "--n", "2"]) == 0
    after_torus = loaded()
    assert cli.main(["shoot", "--d", "3", "--n", "2.5", "--c", "1.7", "--mu", "-0.021"]) == 0
print(json.dumps([after_import, after_torus, loaded()]))
"""


def test_torus_commands_load_no_scipy(tmp_path):
    # SciPy and multiprocessing load with the shooting code, not with the
    # command line: evolve and diagnose run without them
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE, str(tmp_path / "run")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, after_torus, after_shoot = json.loads(proc.stdout)
    assert after_import == after_torus == []
    assert "scipy.integrate" in after_shoot


def test_console_script_installed():
    exe = shutil.which("magma-lab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
