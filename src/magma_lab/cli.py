"""Command-line front end.

Five subcommands: ``shoot`` (critical-curvature search or a single shot),
``evolve`` (torus time evolution), ``sweep`` (parameter grids of critical
shots), ``embed`` (periodize an archived profile), and ``diagnose``
(dispersion, peak tracking, energy drift).

Every physical or numerical option can come from a ``key=value`` config
file (``--config``); explicit flags override file values, which override
built-in defaults; a bad value from the file, the ``init`` spec included,
is reported with its ``path:line``.  ``main`` runs every subcommand of the
``_COMMANDS`` table the same way: merge the config, run the handler, let
``_write_run`` write the artifacts in order and then ``manifest.json``
(merged config, its hash, the artifact list) into ``--out``, and last print
the report as ``key = value`` lines, numbers as Python ``repr`` floats.

Exit codes: 0 success (including every evolve verdict), 1 configuration
or usage errors, 2 numerical failures, 3 I/O failures.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .diagnostics import ConservedEnergyParams, energy_series, fit_dispersion, track_peak
from .evolution import EvolveConfig, _state_row, evolve, monitor_index
from .grid import Field, SnapshotFormatError, TorusGrid, field_stats, read_snapshot, write_snapshot
from .profile import (
    ProfileError,
    ProfileParams,
    ProfileSolution,
    _c_bar,
    _csv,
    _fmt,
    decay_check,
    embed_on_torus,
    find_mu_c,
    integrate_shot,
    read_profile_csv,
    structure_report,
    write_profile_csv,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        try:  # a value, also where argparse's own test misses it ("-1e5", "-1:3:2", "-1,2")
            [float(v) for v in re.split("[,:]", arg_string)]
            return None
        except ValueError:
            return super()._parse_optional(arg_string)


# -- option tables -----------------------------------------------------------

def _c_ints(s: str) -> list[int]:
    return [int(v) for v in s.split(",") if v != ""]


def _c_floats(s: str) -> list[float]:
    """Comma list of floats, or lo:hi:count for a uniform range of at most 10,000."""
    if ":" in s:
        lo, hi, num = s.split(":")
        if not 0 <= int(num) <= 10_000:  # linspace would allocate any count it is given
            raise ValueError(f"a range takes 0 to 10000 values, got {num}")
        with np.errstate(all="ignore"):  # an infinite step gives nan, which readers refuse
            return [float(x) for x in np.linspace(float(lo), float(hi), int(num))]
    return [float(v) for v in s.split(",") if v != ""]


@dataclass(frozen=True)
class _Opt:
    convert: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""


SHOOT_OPTS: dict[str, _Opt] = {
    "d": _Opt(float, required=True, help="spatial dimension of the profile"),
    "n": _Opt(float, required=True, help="nonlinearity exponent in [2, 3]"),
    "c": _Opt(float, required=True, help="wave speed in [1.55, n)"),
    "mu": _Opt(float, help="fire one shot at this curvature instead of searching"),
    "bisect_tol": _Opt(float, 1e-12, help="bracket width for the critical curvature"),
    "r_max": _Opt(float, 200.0, help="first radius of a shot, widened up to 32x when unsettled"),
}

EVOLVE_OPTS: dict[str, _Opt] = {
    "n_points": _Opt(_c_ints, required=True, help="grid points per axis, e.g. 64,64"),
    "lengths": _Opt(_c_floats, help="box side lengths (default 2*pi per axis)"),
    "n": _Opt(float, required=True, help="nonlinearity exponent in [2, 3]"),
    "dt": _Opt(float, required=True, help="time step"),
    "t_end": _Opt(float, required=True, help="final time"),
    "init": _Opt(str, "constant:1.0", help="initial condition spec (see docs)"),
    "threshold": _Opt(float, 1e6, help="monitor value treated as blow-up"),
    "s_monitor": _Opt(float, help="Sobolev index of the monitor (default d/2+floor(d/2)+3)"),
    "snapshot_every": _Opt(int, 0, help="store every k-th step (0: first and last only)"),
    "elliptic_tol": _Opt(float, 1e-10, help="relative residual target of the CG solves"),
}

SWEEP_OPTS: dict[str, _Opt] = {
    "d": _Opt(_c_floats, required=True, help="dimensions, e.g. 1,2,3 or 1:7:4"),
    "n": _Opt(_c_floats, required=True, help="exponents, e.g. 2,2.5,3"),
    "c": _Opt(_c_floats, required=True, help="wave speeds, e.g. 1.55:1.7:5"),
    "bisect_tol": _Opt(float, 1e-8, help="bracket width per grid point"),
    "r_max": _Opt(float, 200.0, help="first radius of a shot, widened up to 32x when unsettled"),
}

EMBED_OPTS: dict[str, _Opt] = {
    "profile": _Opt(str, required=True, help="profile.csv or a run directory holding one"),
    "n_points": _Opt(_c_ints, required=True, help="grid points per axis"),
    "lengths": _Opt(_c_floats, help="box side lengths (default 2*pi per axis)"),
}

DISPERSION_OPTS: dict[str, _Opt] = {
    "n_points": _Opt(_c_ints, required=True, help="grid points per axis"),
    "lengths": _Opt(_c_floats, help="box side lengths (default 2*pi per axis)"),
    "n": _Opt(float, required=True, help="nonlinearity exponent in [2, 3]"),
    "mode": _Opt(_c_ints, required=True, help="integer mode per axis, e.g. 1,0"),
}

TRACK_OPTS: dict[str, _Opt] = {
    "run": _Opt(str, required=True, help="evolve run directory with snapshots"),
}

ENERGY_OPTS: dict[str, _Opt] = {
    "run": _Opt(str, required=True, help="evolve run directory with snapshots"),
    "n": _Opt(float, required=True, help="nonlinearity exponent in [2, 3]"),
}


# -- config assembly ---------------------------------------------------------

def _read_kv_file(path: str) -> dict[str, tuple[str, int]]:
    """key -> (value, line number) of a ``key = value`` file."""
    with open(path) as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    out: dict[str, tuple[str, int]] = {}
    for ln, line in enumerate(lines, start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"{path}:{ln}: expected key=value, got {s!r}")
        key, _, value = s.partition("=")
        key = key.strip().replace("-", "_")
        if key in out:
            raise ValueError(f"{path}:{ln}: key {key!r} given twice")
        out[key] = (value.strip(), ln)
    return out


def _merge_config(table: dict[str, _Opt], ns: argparse.Namespace) -> tuple[dict, dict]:
    """The typed config (flag over file over default), and each option's
    ``path:line: `` in the file, or "" when the file did not give it."""
    path = getattr(ns, "config", None)
    file_vals = _read_kv_file(path) if path else {}
    unknown = [f"{path}:{ln}: unknown config key {key!r}"
               for key, (_, ln) in file_vals.items() if key not in table]
    if unknown:
        raise ValueError("; ".join(unknown))
    merged: dict = {}
    origins: dict[str, str] = {}
    for dest, opt in table.items():
        raw, where = getattr(ns, dest, None), ""
        if raw is None and dest in file_vals:
            raw, ln = file_vals[dest]
            where = f"{path}:{ln}: "
        origins[dest] = where
        if raw is None:
            if opt.required:
                raise ValueError(f"missing required option '{dest}'")
            merged[dest] = opt.default
        else:
            try:
                merged[dest] = opt.convert(raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}bad value for '{dest}': {raw!r} ({exc})") from exc
    return merged, origins


# words by which library errors name an option, where they differ from its name
_OPTION_OF = {"n_exponent": "n", "blowup_threshold": "threshold", "points": "n_points"}


def _locate(message: str, origins: dict[str, str]) -> str:
    """Prefix an error with the config-file line of the first option it names, if any."""
    for word in re.findall(r"\w+", message):
        where = origins.get(_OPTION_OF.get(word, word))
        if where is not None:
            return where + message
    return message


def _json_config(config: dict) -> dict:
    """config as JSON reads it back, each float that is not finite as "inf", "-inf" or "nan"."""
    return json.loads(json.dumps(config, default=str), parse_constant=lambda c: str(float(c)))


def _config_hash(config: dict) -> str:
    blob = json.dumps(_json_config(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _json(obj: object, indent: int | None = None) -> str:
    return json.dumps(obj, indent=indent, sort_keys=True) + "\n"


_Artifact = tuple[str, str | Callable[[str], None]]  # text, or a writer of the path
_Report = list[tuple[str, object]]  # "key = value" lines: str as is, number via _fmt, None none


def _check_out(out_dir: str) -> None:
    """Refuse a run directory that is or lies under a non-directory; makes nothing."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"not a directory: {path}")


def _write_run(out_dir: str, command: str, config: dict, files: list[_Artifact]) -> None:
    """Make the run directory, write each named file in order (text, or a
    writer called with its path), then manifest.json listing the names."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files:
        path = os.path.join(out_dir, name)
        if callable(content):
            content(path)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(content)
    manifest = dict(
        command=command, config=_json_config(config), config_hash=_config_hash(config),
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=[name for name, _ in files], version=__version__,
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as fh:
        fh.write(_json(manifest, indent=2))


def _make_grid(n_points: list[int], lengths: list[float] | None) -> TorusGrid:
    if lengths is None:
        lengths = [2.0 * math.pi] * len(n_points)
    elif len(lengths) == 1 and len(n_points) > 1:
        lengths = lengths * len(n_points)
    return TorusGrid(tuple(n_points), tuple(lengths))


def _initial_field(spec: str, grid: TorusGrid) -> Field:
    """Initial-condition grammar.

    constant:V                      uniform field V
    modes:base=B;amp=A,k=K1:K2,phase=P;...   cosine modes over background B
    file:PATH                       binary snapshot (grid must match)
    profile:PATH                    embedded solitary profile (csv or run dir)
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"initial condition {spec!r} lacks a 'kind:' prefix")
    if kind == "constant":
        return Field.constant(grid, float(rest))
    if kind == "modes":
        segments = [s for s in rest.split(";") if s]
        if not segments or not segments[0].startswith("base="):
            raise ValueError("modes spec must open with base=VALUE")
        vals = np.full(grid.shape, float(segments[0][5:]))
        for segment in segments[1:]:
            mode: dict[str, str] = {}
            for item in segment.split(","):
                key, _, value = item.partition("=")
                if key not in ("amp", "k", "phase"):
                    raise ValueError(f"unknown modes key {key!r}")
                if key in mode:
                    raise ValueError(f"modes key {key!r} given twice in one mode")
                mode[key] = value
            if "amp" not in mode or "k" not in mode:
                raise ValueError("every mode needs amp= and k=")
            amp, phase = float(mode["amp"]), float(mode.get("phase", 0.0))
            kvec = tuple(int(v) for v in mode["k"].split(":"))
            if len(kvec) != grid.d:
                raise ValueError("mode k needs one integer per axis")
            with np.errstate(over="ignore", invalid="ignore"):  # Field refuses inf and nan
                arg = np.zeros(grid.shape)
                for x, kj in zip(grid.coordinates(), grid.mode_wavevector(kvec)):
                    arg = arg + kj * x
                vals = vals + amp * np.cos(arg + phase)
        return Field(grid, vals)
    if kind == "file":
        fld = read_snapshot(rest)
        if fld.grid != grid:
            raise ValueError("snapshot grid does not match the requested grid")
        return fld
    if kind == "profile":
        return _embed_profile(rest, grid)
    raise ValueError(f"unknown initial-condition kind {kind!r}")


def _embed_profile(path: str, grid: TorusGrid) -> Field:
    """The profile archive at path, its csv or a run directory holding one, on grid;
    a profile that cannot be embedded names its archive."""
    sol = read_profile_csv(os.path.join(path, "profile.csv") if os.path.isdir(path) else path)
    try:
        return embed_on_torus(sol, grid)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _snapshot_pair(
    i: int, t: float, fld: Field, monitor: float, cfg_hash: str
) -> list[_Artifact]:
    """The snap_<i>.bin snapshot and its .json sidecar, as _load_run_snapshots
    reads them back."""
    stem = f"snap_{i:06d}"
    sidecar = {"t": float(t), "step": i, "monitor": monitor if math.isfinite(monitor) else None,
               "config_hash": cfg_hash}  # JSON has no inf or nan
    return [
        (stem + ".bin", lambda path: write_snapshot(fld, path)),
        (stem + ".json", _json(sidecar)),
    ]


def _load_run_snapshots(run_dir: str) -> list[tuple[float, Field]]:
    paths = sorted(glob.glob(os.path.join(run_dir, "snap_*.bin")))
    if not paths:
        raise FileNotFoundError(f"no snapshots found in {run_dir!r}")
    out = []
    for path in paths:
        fld, sidecar_path = read_snapshot(path), path[:-4] + ".json"
        if out and fld.grid != out[0][1].grid:
            raise SnapshotFormatError(f"{path}: grid differs from that of {paths[0]}")
        with open(sidecar_path) as fh:
            try:
                sidecar = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or too deep
                raise SnapshotFormatError(f"{sidecar_path}: {exc}") from None
        t = sidecar.get("t") if isinstance(sidecar, dict) else None
        if type(t) not in (int, float) or not abs(t) <= sys.float_info.max:  # bool is an int
            raise SnapshotFormatError(f"{sidecar_path}: sidecar lacks a finite time 't'")
        out.append((float(t), fld))
    out.sort(key=lambda pair: pair[0])
    return out


# -- subcommand handlers -----------------------------------------------------
# Each takes the merged config and the parsed arguments, and returns the
# artifacts for _write_run and the report that main prints after the write.

def _cmd_shoot(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    if cfg["mu"] is not None:
        params = ProfileParams(d=cfg["d"], n=cfg["n"], c=cfg["c"], mu=cfg["mu"])
        outcome, samples = integrate_shot(params, r_max=cfg["r_max"])
        report = [
            ("classification", outcome.classification.value), ("r_star", outcome.r_star),
            ("tau", outcome.tau), ("subcase", outcome.subcase), ("Q_tau", outcome.Q_tau),
        ]
        sol = ProfileSolution(
            params=params, samples=samples,
            Q_tau=outcome.Q_tau if outcome.Q_tau is not None else float("nan"),
        )
    else:
        params = ProfileParams(d=cfg["d"], n=cfg["n"], c=cfg["c"])
        structure = structure_report(params)
        mu_c, sol = find_mu_c(params, bisect_tol=cfg["bisect_tol"], r_max=cfg["r_max"])
        fit = decay_check(sol)
        sol = replace(sol, decay=fit)
        report = [
            ("Q_star", structure.Q_star), ("Q1", structure.Q1),
            ("mu1_min", structure.mu1_min), ("mu2_min", structure.mu2_min),
            ("mu3_min", structure.mu3_min), ("mu_c", mu_c), ("Q_tau", sol.Q_tau),
            ("c_bar", _c_bar(params, 1.0 / sol.Q_tau)),
            ("decay_k", float("nan") if fit is None else fit.k),
            ("decay_M", None if fit is None else fit.M),
        ]
    return [("profile.csv", lambda path: write_profile_csv(path, sol))], report


def _cmd_evolve(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    grid = _make_grid(cfg["n_points"], cfg["lengths"])
    try:
        phi0 = _initial_field(cfg["init"], grid)
    except ValueError as exc:  # named, so that _locate finds the file line of 'init'
        raise ValueError(f"init: {exc}") from exc
    ecfg = EvolveConfig(
        n_exponent=cfg["n"], dt=cfg["dt"], t_end=cfg["t_end"],
        s_monitor=cfg["s_monitor"], blowup_threshold=cfg["threshold"],
        elliptic_tol=cfg["elliptic_tol"], snapshot_every=cfg["snapshot_every"],
    )
    result = evolve(phi0, ecfg)
    rep = result.report

    log = zip(rep.times, rep.mass, rep.monitor, rep.min_phi, map(str, rep.cg_iterations))
    files = [("log.csv", _csv("t,mass,monitor,min_phi,cg_iters", log))]
    cfg_hash = _config_hash(cfg)
    monitor_at = {float(t): float(m) for t, m in zip(rep.times, rep.monitor)}
    for i, (t, fld) in enumerate(result.snapshots):
        files += _snapshot_pair(i, t, fld, monitor_at.get(float(t), float("nan")), cfg_hash)
    return files, [
        ("verdict", rep.verdict.value), ("t_event", rep.t_event),
        ("final_monitor", rep.monitor[-1]), ("snapshots", str(len(result.snapshots))),
    ]


def _sweep_task(item: tuple[float, float, float, float, float]) -> list[str]:
    """One sweep cell; never raises, reports failures in the last column."""
    d, n, c, bisect_tol, r_max = item
    try:
        params = ProfileParams(d=d, n=n, c=c)
        mu_c, sol = find_mu_c(params, bisect_tol=bisect_tol, r_max=r_max)
        error = ""
        try:
            fit = decay_check(sol)
        except ProfileError as exc:
            fit, error = None, f"{type(exc).__name__}: {exc}"
        k = fit.k if fit is not None else float("nan")
        c_bar = _c_bar(params, 1.0 / sol.Q_tau)
        return [
            _fmt(d), _fmt(n), _fmt(c), _fmt(mu_c), _fmt(sol.Q_tau),
            _fmt(k), _fmt(c_bar), error.replace(",", ";"),
        ]
    except Exception as exc:  # a failed cell must not abort the sweep
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return [_fmt(d), _fmt(n), _fmt(c), "", "", "", "", msg]


def _cmd_sweep(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    if ns.jobs < 1:
        raise ValueError("jobs must be at least 1")
    items = [
        (d, n, c, cfg["bisect_tol"], cfg["r_max"])
        for d in cfg["d"] for n in cfg["n"] for c in cfg["c"]
    ]
    jobs = min(ns.jobs, len(items), os.cpu_count() or 1)
    if jobs <= 1:
        rows = [_sweep_task(item) for item in items]
    else:
        from multiprocessing import Pool

        with Pool(processes=jobs) as pool:
            rows = pool.map(_sweep_task, items)

    failures = sum(1 for row in rows if row[-1])
    return [("sweep.csv", _csv("d,n,c,mu_c,Q_tau,k,c_bar,error", rows))], [
        ("rows", str(len(rows))), ("failures", str(failures)),
    ]


def _cmd_embed(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    grid = _make_grid(cfg["n_points"], cfg["lengths"])
    fld = _embed_profile(cfg["profile"], grid)
    monitor, mass, _ = _state_row(fld, monitor_index(None, grid))
    stats = field_stats(fld)
    return _snapshot_pair(0, 0.0, fld, monitor, _config_hash(cfg)), [
        ("peak", stats.max), ("min", stats.min), ("mass", mass),
    ]


def _cmd_diag_dispersion(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    grid = _make_grid(cfg["n_points"], cfg["lengths"])
    fit = fit_dispersion(grid, cfg["n"], tuple(cfg["mode"]))
    return [("dispersion.json", _json(asdict(fit), indent=2))], [
        ("omega_formula", fit.omega_formula), ("omega_measured", fit.omega_measured),
        ("relative_error", fit.relative_error),
    ]


def _cmd_diag_track(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    snapshots = _load_run_snapshots(cfg["run"])
    trace = track_peak(snapshots)
    return [("peaks.csv", _csv("t,position", zip(trace.times, trace.positions)))], [
        ("snapshots", str(len(snapshots))), ("speed", trace.speed),
    ]


def _cmd_diag_energy(cfg: dict, ns: argparse.Namespace) -> tuple[list[_Artifact], _Report]:
    snapshots = _load_run_snapshots(cfg["run"])
    params = ConservedEnergyParams(n=cfg["n"])
    times, energies = energy_series(snapshots, params)
    scale = max(abs(float(energies[0])), 1e-300)
    drift = float(np.max(np.abs(energies - energies[0]))) / scale
    return [("energy.csv", _csv("t,energy", zip(times, energies)))], [
        ("energy_initial", energies[0]), ("energy_final", energies[-1]),
        ("max_relative_drift", drift),
    ]


# -- parser ------------------------------------------------------------------

class _Command(NamedTuple):  # not a dataclass, which costs 1 ms at import
    words: tuple[str, ...]  # ("shoot",) or ("diagnose", "track")
    opts: dict[str, _Opt]
    handler: Callable[[dict, argparse.Namespace], tuple[list[_Artifact], _Report]]
    help: str
    out_required: bool = False  # whether the run always writes a directory


_COMMANDS = [  # in the order --help lists them
    _Command(("shoot",), SHOOT_OPTS, _cmd_shoot, "find the critical curvature or fire one shot"),
    _Command(("evolve",), EVOLVE_OPTS, _cmd_evolve, "evolve an initial state on the torus", True),
    _Command(("sweep",), SWEEP_OPTS, _cmd_sweep, "critical curvatures over a parameter grid",
             True),
    _Command(("embed",), EMBED_OPTS, _cmd_embed, "periodize an archived profile on a torus", True),
    _Command(("diagnose", "dispersion"), DISPERSION_OPTS, _cmd_diag_dispersion,
             "measure one mode's frequency"),
    _Command(("diagnose", "track"), TRACK_OPTS, _cmd_diag_track, "peak positions and speed"),
    _Command(("diagnose", "energy"), ENERGY_OPTS, _cmd_diag_energy, "energy drift over a run"),
]


def _build_parser() -> _Parser:
    parser = _Parser(prog="magma-lab",
                     description="Magma porosity equation laboratory.")
    parser.add_argument("--version", action="version", version=__version__)
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for cmd in _COMMANDS:
        if cmd.words[:-1] not in groups:  # "diagnose", made where its first member comes
            p_diag = groups[()].add_parser("diagnose", help="measurements on runs and modes")
            groups[cmd.words[:-1]] = p_diag.add_subparsers(dest="diag_command", required=True)
        sub = groups[cmd.words[:-1]].add_parser(cmd.words[-1], help=cmd.help)
        for dest, opt in cmd.opts.items():
            sub.add_argument("--" + dest.replace("_", "-"), default=None, metavar="V",
                             help=opt.help)
        if cmd.handler is _cmd_sweep:  # not a config key: -j leaves config_hash alone
            sub.add_argument("--jobs", "-j", type=int, default=1,
                             help="worker processes, at most one per cell and CPU (default 1)")
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="key=value file supplying defaults for any option")
        sub.add_argument("--out", "-o", default=None, required=cmd.out_required,
                         metavar="DIR", help="run directory for artifacts and manifest")
        sub.set_defaults(cmd=cmd)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    origins: dict[str, str] = {}
    try:
        ns = _build_parser().parse_args(argv)
        cfg, origins = _merge_config(ns.cmd.opts, ns)
        if ns.out:
            _check_out(ns.out)
        files, report = ns.cmd.handler(cfg, ns)
        if ns.out or ns.cmd.out_required:
            _write_run(ns.out, " ".join(ns.cmd.words), cfg, files)
        for key, value in report:
            if value is not None:
                print(f"{key} = {value if isinstance(value, str) else _fmt(value)}")
        return 0
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {_locate(str(exc), origins)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
