"""The three benchmark workloads.

Each workload builds its inputs from the seed, sets up, warms up, and then
runs operations through the package's public entry points.  ``op`` times
only the operation itself; ``check`` verifies its outputs afterwards,
outside the timed region, against the acceptance-criterion tolerances.
Every check failure is returned as a message and counts as a failed
operation; nothing is skipped or retried.

On the evolution workloads an operation is one segment of a chained run:
each segment starts from the state the previous one ended in, and
``CHAIN`` segments make the whole run.  A run of the benchmark times whole
chains, so the reference kernel (``REFERENCE``, see reference.py) can be
timed between segments.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import magma_lab.cli
from magma_lab import (
    ConservedEnergyParams,
    EvolveConfig,
    Indeterminate,
    ProfileParams,
    ShotClass,
    TorusGrid,
    Verdict,
    decay_check,
    embed_on_torus,
    energy_series,
    evolve,
    find_mu_c,
    integrate_shot,
    read_snapshot,
    rescale,
    structure_report,
    track_peak,
)

import reference
from tracing import note_evolve


@dataclass
class OpResult:
    """One checked operation and its timed wall time."""

    label: str
    seconds: float
    units: int  # accepted steps (evolution) or completed cells (shooting)
    data: object = None  # what check() needs
    error: str = ""  # exception raised by the operation, if any
    failed: bool = False  # set by the output checks
    ref_seconds: float = float("nan")  # the reference kernel around it


class Evolve1D:
    """Criterion 7 through ``magma-lab evolve``: 1d, N=256, n=2, t in [0, 5].

    The run is a chain of ten ``cli.main`` calls of 500 steps each.  Every
    call after the first starts from the last snapshot of the one before
    (``--init file:PATH``), so the chain covers t in [0, 5].

    The CG tolerance is the command line's default 1e-10, not criterion 7's
    1e-12: that sits on the solver's documented floor, and for about half
    of the seeded inputs the run ends in ``elliptic_failure`` (see
    perfbench/README.md).
    """

    name = "evolve_1d"
    DEFAULT_SEED, HELD_OUT_SEED = 1, 101
    RATE, UNITS, LATENCY, SAMPLE = "steps_per_s", "accepted steps", "step_ms", "cli.main segment"
    REFERENCE = staticmethod(reference.small_fft)
    N_POINTS = 256
    N_EXP = 2.0
    DT = 1e-3
    SEGMENT_T = 0.5
    CHAIN = 10  # segments: t in [0, 5]
    SNAPSHOT_EVERY = 250
    TOL = 1e-10

    def __init__(self, seed: int, workdir: Path, tracer, segment_t: float = SEGMENT_T,
                 chain: int = CHAIN, snapshot_every: int = SNAPSHOT_EVERY):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.segment_t = segment_t
        self.CHAIN = self.min_ops = self.traced_ops = chain
        self.snapshot_every = snapshot_every
        self.runs = 0
        self.chain_start: Path | None = None
        self.last_out: Path | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        modes = ";".join(
            f"amp={0.08 / m!r},k={m},phase={rng.uniform(0.0, 2.0 * np.pi)!r}"
            for m in range(1, 6)
        )
        self.init_spec = "modes:base=1.0;" + modes

    def _argv(self, out: Path, t_end: float, init: str) -> list[str]:
        return [
            "evolve", "--n-points", str(self.N_POINTS), "--n", repr(self.N_EXP),
            "--dt", repr(self.DT), "--t-end", repr(t_end),
            "--elliptic-tol", repr(self.TOL),
            "--snapshot-every", str(self.snapshot_every),
            "--init", init, "-o", str(out),
        ]

    def _run(self, t_end: float, init: str) -> tuple[Path, int, str, float]:
        out = self.workdir / f"{self.name}-run{self.runs}"
        self.runs += 1
        buf = io.StringIO()
        with self.tracer.span("cli.main") as sp, redirect_stdout(buf):
            t0 = time.perf_counter()
            code = magma_lab.cli.main(self._argv(out, t_end, init))
            seconds = time.perf_counter() - t0
        sp.attrs["bytes"] = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        return out, code, buf.getvalue(), seconds

    def warmup(self) -> None:
        self._run(250 * self.DT, self.init_spec)

    def op(self, i: int) -> OpResult:
        k = i % self.CHAIN
        label = f"run {i // self.CHAIN} segment {k}"
        try:
            if k == 0:
                init = self.init_spec
            else:
                init = "file:" + str(sorted(self.last_out.glob("snap_*.bin"))[-1])
            out, code, stdout, seconds = self._run(self.segment_t, init)
        except Exception as exc:  # a failing segment is reported, never dropped
            return OpResult(label, 0.0, 0, error=f"{type(exc).__name__}: {exc}")
        if k == 0:
            self.chain_start = out
        self.last_out = out
        log = out / "log.csv"
        steps = len(log.read_text().splitlines()) - 2 if log.is_file() else 0  # header, t=0
        return OpResult(label, seconds, steps, (code, stdout, out, self.chain_start))

    def check(self, r: OpResult) -> list[str]:
        """Drifts are measured from t = 0 of the chain, as over one long run."""
        code, stdout, out, start = r.data
        if code != 0:
            return [f"exit code {code}"]
        fails = []
        if "verdict = completed_to_t_end" not in stdout.splitlines():
            fails.append("verdict is not completed_to_t_end")
        mass0 = _masses(start)[0]
        mass_drift = float(np.max(np.abs(_masses(out) - mass0)))
        if not mass_drift <= 1e-10:
            fails.append(f"mass drift {mass_drift:.3e} > 1e-10")
        params = ConservedEnergyParams(n=self.N_EXP)
        _, (energy0,) = energy_series(_load_snapshots(start)[:1], params)
        _, energies = energy_series(_load_snapshots(out), params)
        drift = float(np.max(np.abs(energies - energy0)) / abs(energy0))
        if not drift <= 1e-8:
            fails.append(f"energy drift {drift:.3e} > 1e-8")
        return fails

    def initial_state(self):
        cfg = EvolveConfig(n_exponent=self.N_EXP, dt=self.DT, t_end=self.segment_t,
                           elliptic_tol=self.TOL)
        return read_snapshot(self.chain_start / "snap_000000.bin"), cfg

    def profile_params(self):
        return None


def _masses(run_dir: Path) -> np.ndarray:
    rows = (run_dir / "log.csv").read_text().splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def _load_snapshots(run_dir: Path):
    out = []
    for path in sorted(run_dir.glob("snap_*.bin")):
        t = json.loads(path.with_suffix(".json").read_text())["t"]
        out.append((float(t), read_snapshot(path)))
    return out


class Transit2D:
    """Criterion 8: the planar critical profile crossing a quarter of a 128^2 torus.

    The 320-step transit is a chain of sixteen ``evolve`` calls of 20 steps,
    each starting from the field the one before ended with.
    """

    name = "transit_2d"
    DEFAULT_SEED, HELD_OUT_SEED = 2, 102
    RATE, UNITS, LATENCY, SAMPLE = "steps_per_s", "accepted steps", "step_ms", "evolve segment"
    REFERENCE = staticmethod(reference.large_fft)
    PARAMS = ProfileParams(d=2.0, n=2.5, c=1.7)
    N_SIDE = 128
    WIDTHS = 44.0
    STEPS = 320
    SEGMENT_STEPS = 20
    SNAPSHOT_EVERY = 40
    CHAIN = min_ops = traced_ops = STEPS // SEGMENT_STEPS
    WARMUP_STEPS = 20

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        tr = self.tracer
        with tr.span("profile.find_mu_c"):
            _, sol = find_mu_c(self.PARAMS)
        with tr.span("profile.decay_check"):
            fit = decay_check(sol)
        sol = replace(sol, decay=fit)
        scaling = rescale(sol, 1.0 / sol.Q_tau).scaling
        self.c_bar = scaling.c_bar
        self.side = self.WIDTHS * scaling.r_scale / fit.k
        grid = TorusGrid((self.N_SIDE,) * 2, (self.side,) * 2)
        center = tuple(np.random.default_rng(self.seed).uniform(0.0, self.side, size=2))
        with tr.span("profile.embed_on_torus"):
            self.phi0 = embed_on_torus(sol, grid, center)
        t_end = 0.25 * self.side / self.c_bar
        self.cfg = EvolveConfig(
            n_exponent=self.PARAMS.n, dt=t_end / self.STEPS, t_end=t_end,
            snapshot_every=self.SNAPSHOT_EVERY,
        )
        self.segment_cfg = replace(self.cfg, t_end=self.SEGMENT_STEPS * self.cfg.dt)

    def warmup(self) -> None:
        evolve(self.phi0, replace(self.cfg, t_end=self.WARMUP_STEPS * self.cfg.dt))

    def op(self, i: int) -> OpResult:
        k = i % self.CHAIN
        if k == 0:
            self.state = (0.0, self.phi0)
            self.snapshots = [self.state]
        t_start, phi = self.state
        with self.tracer.span("evolution.evolve") as sp:
            t0 = time.perf_counter()
            result = evolve(phi, self.segment_cfg)
            seconds = time.perf_counter() - t0
        note_evolve(sp, result)
        t, phi = result.snapshots[-1]
        self.state = (t_start + t, phi)
        if (k + 1) * self.SEGMENT_STEPS % self.SNAPSHOT_EVERY == 0:
            self.snapshots.append(self.state)
        transit = list(self.snapshots) if k == self.CHAIN - 1 else None
        label = f"transit {i // self.CHAIN} segment {k}"
        return OpResult(label, seconds, sp.attrs["steps"], (result, transit))

    def check(self, r: OpResult) -> list[str]:
        """Each segment must complete; the last one also checks the transit."""
        result, snapshots = r.data
        if result.report.verdict is not Verdict.COMPLETED_TO_T_END:
            return [f"verdict {result.report.verdict.value}"]
        if snapshots is None:
            return []
        fails = []
        track = track_peak(snapshots)
        delta = track.positions[-1] - track.positions[0]
        speed_err = abs(track.speed - self.c_bar) / self.c_bar
        if not speed_err <= 0.02:
            fails.append(f"speed error {speed_err:.3e} > 0.02")
        # the initial field translated by the tracked offset along the last axis
        k_last = self.phi0.grid.axis_wavenumbers(1)
        shifted = np.fft.ifft(
            np.fft.fft(self.phi0.values, axis=-1) * np.exp(-1j * k_last * delta), axis=-1
        ).real
        final = snapshots[-1][1].values
        shape_dev = float(np.linalg.norm(final - shifted) / np.linalg.norm(self.phi0.values - 1.0))
        if not shape_dev <= 0.01:
            fails.append(f"shape deviation {shape_dev:.3e} > 0.01")
        quarter = 0.25 * self.side
        if not abs(delta - quarter) <= 0.05 * quarter:
            fails.append(f"tracked offset {delta:.4g} not within 5% of {quarter:.4g}")
        return fails

    def initial_state(self):
        return self.phi0, self.cfg

    def profile_params(self):
        return [self.PARAMS]


class ShootGrid:
    """Criterion-2 domain cells through find_mu_c at 1e-8 plus decay_check, in process."""

    name = "shoot_grid"
    DEFAULT_SEED, HELD_OUT_SEED = 3, 103
    RATE, UNITS, LATENCY, SAMPLE = "searches_per_s", "find_mu_c + decay_check cells", "search_ms", "cell"
    REFERENCE = staticmethod(reference.ode)
    CHAIN = 1
    min_ops = traced_ops = 40  # one block
    DIMS = (1.0, 2.0, 3.0, 4.0, 7.0)
    PER_DIM = 8  # one block holds PER_DIM cells of each dimension
    BISECT_TOL = 1e-8  # the sweep default
    R_MAX = 200.0  # the sweep default
    WARMUP_CELLS = 2

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        self.cells: list[ProfileParams] = []
        self._rng = np.random.default_rng([self.seed, 0])

    def _cell(self, i: int) -> ProfileParams:
        while len(self.cells) <= i:
            self.cells.extend(_cell_block(self._rng, self.DIMS, self.PER_DIM))
        return self.cells[i]

    def _search(self, p: ProfileParams):
        tr = self.tracer
        with tr.span("profile.find_mu_c"):
            mu_c, sol = find_mu_c(p, bisect_tol=self.BISECT_TOL, r_max=self.R_MAX)
        with tr.span("profile.decay_check"):
            decay_check(sol)
        return mu_c, sol

    def warmup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for p in _cell_block(rng, self.DIMS, 1)[: self.WARMUP_CELLS]:
            self._search(p)

    def op(self, i: int) -> OpResult:
        p = self._cell(i)
        label = f"cell d={p.d:g} n={p.n!r} c={p.c!r}"
        t0 = time.perf_counter()
        try:
            mu_c, sol = self._search(p)
        except Exception as exc:  # a failing cell is reported, never dropped
            return OpResult(label, time.perf_counter() - t0, 0, error=f"{type(exc).__name__}: {exc}")
        # Keep only what the checks need, so that peak_rss_mb does not grow
        # with the number of cells a run happens to complete.
        return OpResult(label, time.perf_counter() - t0, 1, (p, mu_c, sol.Q_tau))

    def check(self, r: OpResult) -> list[str]:
        p, mu_c, q_tau = r.data
        rep = structure_report(p)
        fails = []
        if not rep.mu3_min * (1.0 + 1e-3) < mu_c <= rep.mu2_min:
            fails.append(f"mu_c={mu_c!r} outside (mu3_min(1+1e-3), mu2_min]")
        if not rep.Q_star < q_tau < 1.0:
            fails.append(f"Q_tau={q_tau!r} outside (Q_star, 1)")
        if self._classify(p, mu_c - 2.0 * self.BISECT_TOL) is not ShotClass.CROSSED:
            fails.append("shot at mu_c - 2*bisect_tol did not cross")
        if self._classify(p, mu_c) is ShotClass.CROSSED:
            fails.append("shot at mu_c crossed")
        return fails

    def _classify(self, p: ProfileParams, mu: float) -> ShotClass:
        """Classify as find_mu_c does: an indeterminate shot doubles its radius."""
        r, cap = self.R_MAX, 32.0 * self.R_MAX
        while True:
            try:
                return integrate_shot(replace(p, mu=mu), r_max=r, keep_samples=False)[0].classification
            except Indeterminate:
                if r >= cap:
                    raise
                r = min(2.0 * r, cap)

    def initial_state(self):
        return None

    def profile_params(self):
        return self.cells[:5]


def _cell_block(rng, dims, per_dim: int) -> list[ProfileParams]:
    """per_dim cells per dimension, n and c stratified (Latin hypercube).

    n is uniform on [2, 3] and c on [1.55, n - 0.05]; stratifying keeps the
    mix of cheap and expensive cells alike across seeds.  Dimensions are
    interleaved so that any prefix of the block stays balanced.
    """
    cols = {}
    for d in dims:
        n_frac = (rng.permutation(per_dim) + rng.uniform(size=per_dim)) / per_dim
        c_frac = (rng.permutation(per_dim) + rng.uniform(size=per_dim)) / per_dim
        cols[d] = (n_frac, c_frac)
    out = []
    for j in range(per_dim):
        for d in dims:
            n = 2.0 + float(cols[d][0][j])
            c = 1.55 + float(cols[d][1][j]) * (n - 0.05 - 1.55)
            out.append(ProfileParams(d=d, n=n, c=c))
    return out


WORKLOADS = {w.name: w for w in (Evolve1D, Transit2D, ShootGrid)}
