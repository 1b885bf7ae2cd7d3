"""Measurement utilities: conserved energy, dispersion fits, peak tracking.

These evaluate observables on fields and snapshot sequences; they never
mutate evolution state.  The energy functional

    E[phi] = integral  0.5 |grad phi|^2 + V(phi),
    V''(phi) = phi^{-n},  V(1) = V'(1) = 0,

is an exact invariant of the flow in any dimension.  The antiderivative V
has a removable singularity at n = 2, handled by an explicit branch.  A
dispersion fit is one fixed measurement: amplitude EPSILON, PERIODS
analytic periods of STEPS_PER_PERIOD RK4 steps each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import EvolveConfig, PositivityLost, Verdict, evolve
from .grid import Field, TorusGrid, spectral_derivative

__all__ = [
    "ConservedEnergyParams",
    "conserved_energy",
    "energy_series",
    "DispersionFit",
    "fit_dispersion",
    "NoPeak",
    "PeakTrack",
    "track_peak",
]

EPSILON = 1e-4  # amplitude of the tracked mode; its O(EPSILON^2) shift is far below 1e-3
PERIODS, STEPS_PER_PERIOD = 3, 64  # 192 RK4 steps, at the same phase error for every mode


@dataclass(frozen=True)
class ConservedEnergyParams:
    n: float

    def __post_init__(self) -> None:
        if not 2.0 <= self.n <= 3.0:
            raise ValueError("exponent n must lie in [2, 3]")


def _potential(phi: np.ndarray, n: float) -> np.ndarray:
    """V with V'' = phi^{-n}, V(1) = V'(1) = 0, for n in [2, 3], n = 2 its limit."""
    if abs(n - 2.0) <= 1e-9:
        return (phi - 1.0) - np.log(phi)
    return (phi ** (2.0 - n) - 1.0 + (n - 2.0) * (phi - 1.0)) / ((n - 1.0) * (n - 2.0))


def conserved_energy(phi: Field, params: ConservedEnergyParams) -> float:
    vals = phi.values
    if not vals.min() > 0.0:
        raise PositivityLost(f"min(phi) = {vals.min():.3e}")
    grad_sq = np.zeros(phi.grid.shape)
    for axis in range(phi.grid.d):
        grad_sq += spectral_derivative(phi, axis).values ** 2
    density = 0.5 * grad_sq + _potential(vals, params.n)
    return float(density.sum()) * phi.grid.cell_volume


def energy_series(
    snapshots: list[tuple[float, Field]], params: ConservedEnergyParams
) -> tuple[np.ndarray, np.ndarray]:
    times = np.array([t for t, _ in snapshots])
    energies = np.array([conserved_energy(f, params) for _, f in snapshots])
    return times, energies


@dataclass(frozen=True)
class DispersionFit:
    omega_formula: float
    omega_measured: float
    relative_error: float


def fit_dispersion(grid: TorusGrid, n_exponent: float, mode: tuple[int, ...]) -> DispersionFit:
    """Measure the oscillation frequency of one cosine mode on background 1.

    The analytic rate for amplitude 0 is omega = n k_d / (1 + |k|^2); the
    measured rate is the phase slope of the mode coefficient under the full
    nonlinear flow started from phi = 1 + EPSILON cos(k.x), so it carries
    an O(EPSILON^2) correction.  One ``evolve`` run with no blow-up threshold
    takes PERIODS * STEPS_PER_PERIOD RK4 steps at elliptic_tol 1e-12 and
    keeps every state.  dt is a fixed share of the analytic period, so the
    RK4 phase error is the same for every mode.  A run that ends in any
    other verdict than completed_to_t_end raises RuntimeError.
    """
    if not 2.0 <= n_exponent <= 3.0:  # before it sets the period
        raise ValueError("n_exponent must lie in [2, 3]")
    if len(mode) != grid.d:
        raise ValueError("mode must have one integer per axis")
    if all(m == 0 for m in mode):
        raise ValueError("mode must not be the mean")

    k_vec = grid.mode_wavevector(mode)
    with np.errstate(over="ignore"):  # |k|^2 or t_end past the float range: refused below
        k_sq = sum(kj**2 for kj in k_vec)
        omega_formula = n_exponent * k_vec[-1] / (1.0 + k_sq)
        if omega_formula == 0.0:
            raise ValueError("mode has no component along the driven axis")
        period = 2.0 * np.pi / abs(omega_formula)
        dt = period / STEPS_PER_PERIOD
        t_end = PERIODS * STEPS_PER_PERIOD * dt
    if not t_end <= 1e150:  # np.polyfit below sums the squared times
        raise ValueError(f"the run would last {t_end:.3g}, past the 1e150 the phase fit allows")
    cfg = EvolveConfig(
        n_exponent=n_exponent, dt=dt, t_end=t_end, blowup_threshold=np.inf,
        elliptic_tol=1e-12, snapshot_every=1,
    )

    phase = np.zeros(grid.shape)
    for x, kj in zip(grid.coordinates(), k_vec):
        phase = phase + kj * x
    result = evolve(Field(grid, 1.0 + EPSILON * np.cos(phase)), cfg)
    rep = result.report
    if rep.verdict is not Verdict.COMPLETED_TO_T_END:
        raise RuntimeError(f"evolution ended in {rep.verdict.value} at t = {rep.t_event:.6g}")
    wave = np.exp(-1j * phase)  # the mode's coefficient is mean(phi * wave)
    times = np.array([t for t, _ in result.snapshots])
    coeff = np.array([np.mean(phi.values * wave) for _, phi in result.snapshots])

    if np.min(np.abs(coeff)) < 0.25 * EPSILON:
        raise RuntimeError("tracked mode lost most of its amplitude")
    angles = np.unwrap(np.angle(coeff))
    slope = np.polyfit(times, angles, 1)[0]
    omega_measured = -float(slope)
    rel = abs(omega_measured - omega_formula) / abs(omega_formula)
    return DispersionFit(
        omega_formula=float(omega_formula), omega_measured=omega_measured,
        relative_error=float(rel),
    )


class NoPeak(RuntimeError):
    """The field is flat to 1e-12, so no peak position is defined."""


@dataclass(frozen=True)
class PeakTrack:
    times: np.ndarray
    positions: np.ndarray  # unwrapped along the last axis
    speed: float


def track_peak(snapshots: list[tuple[float, Field]]) -> PeakTrack:
    """Subgrid peak positions along the last axis and their fitted speed.

    Each snapshot's global maximum is sharpened by a three-point quadratic
    fit along the last axis.  Positions are unwrapped assuming the peak
    moves less than half the domain between consecutive snapshots; the
    speed is the least-squares slope of position against time.
    """
    if len(snapshots) < 5:
        raise ValueError("need at least 5 snapshots to fit a speed")
    grid = snapshots[0][1].grid
    if any(fld.grid != grid for _, fld in snapshots):
        raise ValueError("snapshots do not share one grid")
    length = grid.lengths[-1]
    n_last = grid.n_points[-1]
    h = length / n_last

    times = []
    raw = []
    for t, fld in snapshots:
        vals = fld.values
        if float(vals.max() - vals.min()) < 1e-12:
            raise NoPeak(f"snapshot at t={t} is constant to 1e-12")
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        line = vals[idx[:-1]]
        i = idx[-1]
        f_m = line[(i - 1) % n_last]
        f_0 = line[i]
        f_p = line[(i + 1) % n_last]
        den = f_m - 2.0 * f_0 + f_p
        delta = 0.5 * (f_m - f_p) / den if den != 0.0 else 0.0
        times.append(t)
        raw.append((i + delta) * h)

    positions = [raw[0]]
    for p in raw[1:]:
        positions.append(p + length * round((positions[-1] - p) / length))
    times_arr = np.array(times)
    pos_arr = np.array(positions)
    speed = float(np.polyfit(times_arr, pos_arr, 1)[0])
    return PeakTrack(times=times_arr, positions=pos_arr, speed=speed)
