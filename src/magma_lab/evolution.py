"""Time evolution of the porosity equation by elliptic inversion.

The equation phi_t + d/dx_d(phi^n) - div(phi^n grad phi_t) = 0 is solved
for the compaction rate C := phi_t, giving the Banach-space ODE

    phi_t = N(phi) = -L^{-1}_{phi^n}[ d/dx_d(phi^n) ],

which is non-stiff because N gains a derivative, so classical RK4 with a
fixed step is used.  Every step evaluates the dichotomy monitor
hs_norm(phi - 1, s) + sup|1/phi|; threshold crossings, positivity loss and
elliptic breakdowns are reported as verdicts, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elliptic import NotConverged, _solve_raw
from .grid import Field, TorusGrid, field_stats, hs_norm

__all__ = [
    "EvolveConfig",
    "Verdict",
    "BlowupReport",
    "EvolveResult",
    "PositivityLost",
    "monitor_index",
    "rhs",
    "step_rk4",
    "evolve",
    "measure_mass",
]


class PositivityLost(RuntimeError):
    """min(phi) <= 0, so phi^n and the elliptic coefficient are invalid."""


class Verdict(Enum):
    COMPLETED_TO_T_END = "completed_to_t_end"
    THRESHOLD_EXCEEDED = "threshold_exceeded"
    ELLIPTIC_FAILURE = "elliptic_failure"
    POSITIVITY_LOST = "positivity_lost"


@dataclass(frozen=True)
class EvolveConfig:
    """Fixed-step integration settings; adaptivity is opt-in."""

    n_exponent: float
    dt: float
    t_end: float
    s_monitor: float | None = None  # default d/2 + floor(d/2) + 3, set per grid
    blowup_threshold: float = 1e6
    elliptic_tol: float = 1e-10
    snapshot_every: int = 0  # 0 keeps only the first and last states
    cg_max_iter: int | None = None
    adaptive: bool = False
    step_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 2.0 <= self.n_exponent <= 3.0:
            raise ValueError("n_exponent must lie in [2, 3]")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.s_monitor is not None and self.s_monitor < 0:
            raise ValueError("s_monitor must be nonnegative")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")
        if not self.elliptic_tol > 0:
            raise ValueError("elliptic_tol must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be at least 1")
        if not self.step_tol > 0:
            raise ValueError("step_tol must be positive")


@dataclass(frozen=True)
class BlowupReport:
    verdict: Verdict
    t_event: float | None
    final_monitor: float
    s_monitor: float
    times: np.ndarray
    monitor: np.ndarray
    mass: np.ndarray
    min_phi: np.ndarray
    cg_iterations: np.ndarray


@dataclass(frozen=True)
class EvolveResult:
    snapshots: list[tuple[float, Field]]
    report: BlowupReport


def monitor_index(cfg: EvolveConfig, grid: TorusGrid) -> float:
    if cfg.s_monitor is not None:
        return cfg.s_monitor
    return _default_monitor_index(grid)


def _default_monitor_index(grid: TorusGrid) -> float:
    return grid.d / 2 + grid.d // 2 + 3


def _monitor_value(phi: Field, s: float) -> float:
    return hs_norm(phi - 1.0, s) + field_stats(phi).inv_sup


def _rhs_raw(
    grid: TorusGrid,
    vals: np.ndarray,
    cfg: EvolveConfig,
    guess: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    if not vals.min() > 0.0:
        raise PositivityLost(f"min(phi) = {vals.min():.3e}")
    a = np.exp(cfg.n_exponent * np.log(vals))
    g = -np.fft.irfftn(
        grid.rfft_deriv_multipliers[-1] * np.fft.rfftn(a),
        s=grid.shape,
        axes=tuple(range(grid.d)),
    )
    out, info = _solve_raw(grid, a, g, cfg.elliptic_tol, cfg.cg_max_iter, guess)
    return out, info.iterations


def _step_raw(
    grid: TorusGrid,
    vals: np.ndarray,
    dt: float,
    cfg: EvolveConfig,
    guess: np.ndarray | None,
) -> tuple[np.ndarray, int, np.ndarray]:
    k1, i1 = _rhs_raw(grid, vals, cfg, guess)
    k2, i2 = _rhs_raw(grid, vals + (0.5 * dt) * k1, cfg, k1)
    k3, i3 = _rhs_raw(grid, vals + (0.5 * dt) * k2, cfg, k2)
    k4, i4 = _rhs_raw(grid, vals + dt * k3, cfg, k3)
    out = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, i1 + i2 + i3 + i4, k4


def rhs(phi: Field, cfg: EvolveConfig) -> Field:
    """Compaction rate C = -L^{-1}_{phi^n}[ d/dx_d(phi^n) ]."""
    out, _ = _rhs_raw(phi.grid, phi.values, cfg, None)
    return Field(phi.grid, out)


def step_rk4(phi: Field, dt: float, cfg: EvolveConfig, guess: Field | None = None) -> Field:
    """One classical RK4 step; all four stages share the elliptic tolerance."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = None if guess is None else guess.values
    out, _, _ = _step_raw(phi.grid, phi.values, dt, cfg, g)
    return Field(phi.grid, out)


def measure_mass(phi: Field) -> float:
    """Grid quadrature of phi - 1 over the torus."""
    return float((phi.values - 1.0).sum()) * phi.grid.cell_volume


class _Log:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.monitor: list[float] = []
        self.mass: list[float] = []
        self.min_phi: list[float] = []
        self.cg: list[int] = []

    def add(self, t: float, mon: float, mass: float, lo: float, cg: int) -> None:
        self.times.append(t)
        self.monitor.append(mon)
        self.mass.append(mass)
        self.min_phi.append(lo)
        self.cg.append(cg)

    def report(self, verdict: Verdict, t_event: float | None, s: float) -> BlowupReport:
        return BlowupReport(
            verdict=verdict,
            t_event=t_event,
            final_monitor=self.monitor[-1],
            s_monitor=s,
            times=np.array(self.times),
            monitor=np.array(self.monitor),
            mass=np.array(self.mass),
            min_phi=np.array(self.min_phi),
            cg_iterations=np.array(self.cg, dtype=np.int64),
        )


def _inspect(vals: np.ndarray, grid: TorusGrid, s: float) -> tuple[float, float, float]:
    """(monitor, mass, min) of a raw state; non-finite states monitor +inf."""
    if not np.all(np.isfinite(vals)):
        return np.inf, np.nan, -np.inf
    phi = Field(grid, vals)
    return _monitor_value(phi, s), measure_mass(phi), float(vals.min())


def evolve(phi0: Field, cfg: EvolveConfig) -> EvolveResult:
    """Integrate to t_end or to the first dichotomy verdict.

    Failures surface as verdicts: threshold crossing, positivity loss and
    elliptic non-convergence all terminate the run with the offending time.
    """
    grid = phi0.grid
    s = monitor_index(cfg, grid)
    log = _Log()
    snapshots: list[tuple[float, Field]] = [(0.0, phi0)]

    vals = phi0.values
    mon, mass, lo = _inspect(vals, grid, s)
    log.add(0.0, mon, mass, lo, 0)
    if lo <= 0.0:
        return EvolveResult(snapshots, log.report(Verdict.POSITIVITY_LOST, 0.0, s))
    if mon > cfg.blowup_threshold:
        return EvolveResult(snapshots, log.report(Verdict.THRESHOLD_EXCEEDED, 0.0, s))

    stepper = _adaptive_steps if cfg.adaptive else _fixed_steps
    verdict, t_event, vals, snapshots = stepper(grid, vals, cfg, s, log, snapshots)

    if snapshots[-1][0] != log.times[-1] and np.all(np.isfinite(vals)):
        snapshots.append((log.times[-1], Field(grid, vals)))
    return EvolveResult(snapshots, log.report(verdict, t_event, s))


def _check_state(
    vals: np.ndarray, grid: TorusGrid, s: float, t: float, cfg: EvolveConfig,
    log: _Log, cg: int,
) -> Verdict | None:
    mon, mass, lo = _inspect(vals, grid, s)
    log.add(t, mon, mass, lo, cg)
    if lo <= 0.0 and np.isfinite(lo):
        return Verdict.POSITIVITY_LOST
    if mon > cfg.blowup_threshold:
        return Verdict.THRESHOLD_EXCEEDED
    return None


def _fixed_steps(grid, vals, cfg, s, log, snapshots):
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-9))
    widths = [cfg.dt] * n_full
    if cfg.t_end - n_full * cfg.dt > 1e-12 * cfg.dt:
        widths.append(cfg.t_end - n_full * cfg.dt)
    guess = None
    t = 0.0
    for k, dt in enumerate(widths, start=1):
        t = cfg.t_end if k == len(widths) else k * cfg.dt
        try:
            vals, cg, guess = _step_raw(grid, vals, dt, cfg, guess)
        except PositivityLost:
            return Verdict.POSITIVITY_LOST, t, vals, snapshots
        except NotConverged:
            return Verdict.ELLIPTIC_FAILURE, t, vals, snapshots
        verdict = _check_state(vals, grid, s, t, cfg, log, cg)
        if verdict is not None:
            return verdict, t, vals, snapshots
        if cfg.snapshot_every > 0 and k % cfg.snapshot_every == 0 and k != len(widths):
            snapshots.append((t, Field(grid, vals)))
    return Verdict.COMPLETED_TO_T_END, None, vals, snapshots


def _adaptive_steps(grid, vals, cfg, s, log, snapshots):
    """Step-doubling control: compare one dt step with two dt/2 steps."""
    t = 0.0
    dt = cfg.dt
    guess = None
    accepted = 0
    rejections = 0
    while t < cfg.t_end - 1e-12 * cfg.dt:
        dt = min(dt, cfg.t_end - t)
        try:
            coarse, cg1, _ = _step_raw(grid, vals, dt, cfg, guess)
            half, cg2, g_half = _step_raw(grid, vals, 0.5 * dt, cfg, guess)
            fine, cg3, g_fine = _step_raw(grid, half, 0.5 * dt, cfg, g_half)
        except PositivityLost:
            return Verdict.POSITIVITY_LOST, t + dt, vals, snapshots
        except NotConverged:
            return Verdict.ELLIPTIC_FAILURE, t + dt, vals, snapshots
        scale = max(float(np.linalg.norm(fine)), 1e-30)
        err = float(np.linalg.norm(fine - coarse)) / (15.0 * scale)
        if err <= cfg.step_tol:
            t += dt
            vals, guess = fine, g_fine
            accepted += 1
            rejections = 0
            verdict = _check_state(vals, grid, s, t, cfg, log, cg1 + cg2 + cg3)
            if verdict is not None:
                return verdict, t, vals, snapshots
            if cfg.snapshot_every > 0 and accepted % cfg.snapshot_every == 0:
                snapshots.append((t, Field(grid, vals)))
        else:
            rejections += 1
            if rejections > 60:
                raise RuntimeError("adaptive step control failed to make progress")
        dt *= min(5.0, max(0.2, 0.9 * (cfg.step_tol / max(err, 1e-30)) ** 0.2))
    return Verdict.COMPLETED_TO_T_END, None, vals, snapshots
