"""Time evolution of the porosity equation by elliptic inversion.

The equation phi_t + d/dx_d(phi^n) - div(phi^n grad phi_t) = 0 is solved
for the compaction rate C := phi_t, giving the Banach-space ODE

    phi_t = N(phi) = -L^{-1}_{phi^n}[ d/dx_d(phi^n) ],

which is non-stiff because N gains a derivative, so classical RK4 with a
fixed step is used.  The four elliptic solves of a step start CG from an
earlier stage plus that stage's offset, extrapolated by the backward
differences of its last ORDER values (Fischer, CMAME 1998), so only
iteration counts change; guesses are rfft coefficients (``TorusGrid.rfft``),
as the solver takes them.  Each accepted state is one ``Field``: it is
logged, stored as a snapshot and continued by the next call.  Its row is
the dichotomy monitor hs_norm(phi - 1, s) + field_stats(phi).inv_sup at
s = monitor_index(cfg, grid), measure_mass(phi) and min phi, the same row
``magma-lab embed`` writes; threshold crossings (a monitor that is not
finite among them), positivity loss and elliptic breakdowns are reported
as verdicts, never exceptions or NumPy warnings.  A run is refused up
front when it would take more than MAX_STEPS steps.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
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

ORDER = 5  # stage guesses sum up to 5 backward differences of past offsets
MAX_STEPS = 100_000  # a longer run is refused: 20x criterion 7's 5,000 steps, ~100 s at 1d N=256
_carried = weakref.WeakKeyDictionary()  # a run's final Field -> ((n, dt, tol), k4, tables)


class PositivityLost(RuntimeError):
    """min(phi) <= 0, so phi^n and the elliptic coefficient are invalid."""


class Verdict(Enum):
    COMPLETED_TO_T_END = "completed_to_t_end"
    THRESHOLD_EXCEEDED = "threshold_exceeded"
    ELLIPTIC_FAILURE = "elliptic_failure"
    POSITIVITY_LOST = "positivity_lost"


@dataclass(frozen=True)
class EvolveConfig:
    """RK4 steps of width dt, the last one shortened to end on t_end; at most MAX_STEPS."""

    n_exponent: float
    dt: float
    t_end: float
    s_monitor: float | None = None  # default d/2 + floor(d/2) + 3, set per grid
    blowup_threshold: float = 1e6
    elliptic_tol: float = 1e-10
    snapshot_every: int = 0  # 0 keeps only the first and last states

    def __post_init__(self) -> None:
        if not 2.0 <= self.n_exponent <= 3.0:
            raise ValueError("n_exponent must lie in [2, 3]")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"t_end/dt must be at most {MAX_STEPS} steps")
        if self.s_monitor is not None and not 0 <= self.s_monitor < np.inf:
            raise ValueError("s_monitor must be nonnegative and finite")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")
        if not 0 < self.elliptic_tol < np.inf:
            raise ValueError("elliptic_tol must be positive and finite")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")


@dataclass(frozen=True)
class BlowupReport:
    verdict: Verdict
    t_event: float | None
    times: np.ndarray
    monitor: np.ndarray
    mass: np.ndarray
    min_phi: np.ndarray
    cg_iterations: np.ndarray


@dataclass(frozen=True)
class EvolveResult:
    snapshots: list[tuple[float, Field]]
    report: BlowupReport


def monitor_index(cfg: EvolveConfig | None, grid: TorusGrid) -> float:
    """The monitor's Sobolev index: ``cfg.s_monitor`` if set, else (and for
    ``cfg=None``) d/2 + floor(d/2) + 3."""
    if cfg is not None and cfg.s_monitor is not None:
        return cfg.s_monitor
    return grid.d / 2 + grid.d // 2 + 3


def _state_row(phi: Field, s: float) -> tuple[float, float, float]:
    """The monitor hs_norm(phi - 1, s) + sup|1/phi|, the mass and min phi."""
    st = field_stats(phi)
    return hs_norm(phi - 1.0, s) + st.inv_sup, measure_mass(phi), st.min


def _rhs_raw(
    grid: TorusGrid,
    vals: np.ndarray,
    cfg: EvolveConfig,
    guess_hat: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """N(phi) as samples and rfft coefficients, and its CG iterations."""
    if not vals.min() > 0.0:
        raise PositivityLost(f"min(phi) = {vals.min():.3e}")
    a = np.exp(cfg.n_exponent * np.log(vals))
    g_hat = -grid.rfft_deriv_multipliers[-1] * grid.rfft(a)
    try:
        out, out_hat, info = _solve_raw(grid, a, g_hat, cfg.elliptic_tol, None, guess_hat)
    except NotConverged as exc:
        if guess_hat is None:
            raise
        # near the rounding floor every re-check from this guess can land
        # just above tol (README); a cold start ends on other roundings
        out, out_hat, info = _solve_raw(grid, a, g_hat, cfg.elliptic_tol, None, None)
        return out, out_hat, exc.iterations + info.iterations
    return out, out_hat, info.iterations


def _push(table: list[np.ndarray], offset: np.ndarray) -> None:
    """Make ``offset`` the newest value of ``table`` in place: ``table[j]``
    becomes its j-th backward difference, written over an old array."""
    diffs = [offset]
    for d in table[: ORDER - 1]:
        diffs.append(np.subtract(diffs[-1], d, out=d))
    table[:] = diffs


def _extrapolate(
    base: np.ndarray | None, table: Sequence[np.ndarray], tol: float
) -> np.ndarray | None:
    """``base`` plus the next offset from the Newton backward-difference
    series (Hairer, Norsett & Wanner, Solving ODEs I, ch. III), exact for
    offsets on a polynomial of degree below len(table).  Terms are added
    while their norms fall, up to and including the first one below
    ``tol * |base|``; ``base`` itself without a table.  A table is read once
    per step, so norms are taken here rather than cached by _push."""
    if base is None or not table:
        return base
    floor, last = tol * tol * np.vdot(base, base).real, np.inf
    for d in table:
        norm2 = np.vdot(d, d).real
        if not norm2 < last or last < floor:
            break
        base, last = base + d, norm2
    return base


def _step_raw(
    grid: TorusGrid,
    vals: np.ndarray,
    dt: float,
    cfg: EvolveConfig,
    guess_hat: np.ndarray | None,
    tables: Sequence[Sequence[np.ndarray]] = ((), (), (), ()),
) -> tuple[np.ndarray, int, list[np.ndarray]]:
    """One RK4 step.  CG for k1 starts from ``guess_hat`` and CG for stage s
    from k_{s-1}, each extrapolated by ``tables[s - 1]`` of its past offsets
    (k1 minus the last step's k4, then k_s - k_{s-1}), all rfft coefficients.
    Returns the state, CG work and the stages' rfft coefficients."""
    tol = cfg.elliptic_tol
    k, k_hat, cg = _rhs_raw(grid, vals, cfg, _extrapolate(guess_hat, tables[0], tol))
    ks_hat, acc = [k_hat], k  # acc sums k1 + 2 k2 + 2 k3 + k4 in that order
    for c, w, table in zip((0.5, 0.5, 1.0), (2.0, 2.0, 1.0), tables[1:]):
        guess = _extrapolate(ks_hat[-1], table, tol)
        k, k_hat, i = _rhs_raw(grid, vals + (c * dt) * k, cfg, guess)
        ks_hat.append(k_hat)
        acc, cg = acc + w * k, cg + i
    return vals + (dt / 6.0) * acc, cg, ks_hat


def rhs(phi: Field, cfg: EvolveConfig) -> Field:
    """Compaction rate C = -L^{-1}_{phi^n}[ d/dx_d(phi^n) ]."""
    return Field(phi.grid, _rhs_raw(phi.grid, phi.values, cfg, None)[0])


def step_rk4(phi: Field, dt: float, cfg: EvolveConfig) -> Field:
    """One classical RK4 step; all four stages share the elliptic tolerance."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return Field(phi.grid, _step_raw(phi.grid, phi.values, dt, cfg, None)[0])


def measure_mass(phi: Field) -> float:
    """Grid quadrature of phi - 1 over the torus."""
    return float((phi.values - 1.0).sum()) * phi.grid.cell_volume


def _record(
    rows: list[tuple], t: float, phi: Field | None, s: float, limit: float, cg: int
) -> Verdict | None:
    """Append (t, monitor, mass, min_phi, cg) of a state and return its
    verdict, if any; a state that is not finite (None) records monitor +inf,
    and a monitor that is not at most ``limit`` (nan, or above it) exceeds
    the threshold."""
    if phi is not None:
        rows.append((t, *_state_row(phi, s), cg))
    else:
        rows.append((t, np.inf, np.nan, -np.inf, cg))
    _, mon, _, lo, _ = rows[-1]
    if lo <= 0.0 and np.isfinite(lo):
        return Verdict.POSITIVITY_LOST
    if not mon <= limit:
        return Verdict.THRESHOLD_EXCEEDED
    return None


@np.errstate(all="ignore")  # the verdict reports a state that overflows
def evolve(phi0: Field, cfg: EvolveConfig) -> EvolveResult:
    """Integrate to t_end or to the first verdict, in fixed RK4 steps.

    Steps end at the times k*dt, and a shorter last step ends on t_end, so
    a run makes at most ceil(t_end/dt) steps of four elliptic solves each.
    A full step starts the CG of stage s from k_{s-1} (k1 from the last
    step's k4) plus the offset k_s - k_{s-1}, extrapolated from the last
    ORDER full steps by _extrapolate; the solves still meet elliptic_tol.
    The shortened last step starts from k_{s-1} alone.  A run that ends on
    a full step keeps its k4 and tables, weakly keyed by its final Field,
    for a call from that very Field at the same n_exponent, dt and
    elliptic_tol: a chain of calls is bit for bit one call.  Any other phi0
    starts cold.  Threshold, positivity and elliptic failures are verdicts
    at the end time of the failing step.  A monitor that is not finite
    exceeds any threshold, an infinite one included.
    """
    grid, key = phi0.grid, (cfg.n_exponent, cfg.dt, cfg.elliptic_tol)  # phi0 fixes the grid
    old_key, *carried = _carried.pop(phi0, (None,) * 3)  # moved, not copied
    _carried.clear()  # so at most one set of tables is alive
    guess_hat, tables = carried if old_key == key else (None, [[], [], [], []])
    s, limit = monitor_index(cfg, grid), min(cfg.blowup_threshold, np.finfo(float).max)
    rows: list[tuple[float, float, float, float, int]] = []
    phi: Field | None = phi0  # the last accepted state; None once it is not finite
    snapshots: list[tuple[float, Field]] = [(0.0, phi0)]
    verdict = _record(rows, 0.0, phi, s, limit, 0)
    t_event: float | None = 0.0
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-9))
    n_steps = n_full + int(cfg.t_end - n_full * cfg.dt > 1e-12 * cfg.dt)
    step = 0
    while verdict is None and step < n_steps:
        step += 1
        full = step <= n_full
        dt = cfg.dt if full else cfg.t_end - n_full * cfg.dt
        t_event = cfg.t_end if step == n_steps else step * cfg.dt
        try:
            new, cg, ks = _step_raw(grid, phi.values, dt, cfg, guess_hat,
                                    tables if full else ((),) * 4)
        except PositivityLost:
            verdict = Verdict.POSITIVITY_LOST
            break
        except NotConverged:
            verdict = Verdict.ELLIPTIC_FAILURE
            break
        if full:
            for a, b, table in zip([guess_hat] + ks, ks, tables):
                if a is not None:  # k1 of the first step has no offset
                    _push(table, b - a)
        guess_hat = ks[-1]
        try:
            phi = Field(grid, new)
        except ValueError:  # Field refuses samples that are not finite
            phi = None
        verdict = _record(rows, t_event, phi, s, limit, cg)
        if verdict is None and cfg.snapshot_every > 0 and step % cfg.snapshot_every == 0:
            snapshots.append((t_event, phi))
    if verdict is None:
        verdict, t_event = Verdict.COMPLETED_TO_T_END, None

    if phi is not None and snapshots[-1][0] != rows[-1][0]:
        snapshots.append((rows[-1][0], phi))
    if verdict is Verdict.COMPLETED_TO_T_END and n_steps == n_full > 0:
        _carried[phi] = (key, guess_hat, tables)
    times, monitor, mass, min_phi, cg = (np.array(col) for col in zip(*rows))
    report = BlowupReport(
        verdict=verdict, t_event=t_event, times=times, monitor=monitor, mass=mass,
        min_phi=min_phi, cg_iterations=cg.astype(np.int64),
    )
    return EvolveResult(snapshots, report)
