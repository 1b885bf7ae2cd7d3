"""Radially symmetric solitary-wave profiles by shooting.

The traveling-wave ansatz reduces the PDE to a third-order ODE in the
rescaled radius,

    -Q_r + (1/c)(Q^n)_r + (Q^n Q_rr)_r + (d-1) Q^n (Q_r/r)_r = 0,
    Q(0) = 1,  Q_r(0) = 0,  Q_rr(0) = mu < 0,

with the initial curvature mu as the single shooting dial.  Integrated
shots fall into exactly one of three classes: the solution crosses the
floor Q_* while strictly decreasing, hits a finite turning point, or
decays monotonically to a positive limit Q_tau.  The critical curvature
mu_c sits on the boundary between the first class and the rest and is
located by bisection.

The analysis rests on three structure functions F_i(Q, mu), each affine
in mu as g_i(Q) + h_i(Q) mu:

    F1 = -(Q^{1-n}-1)/(n-1) - (n/c) ln Q + mu d,
    F2 = integral_1^Q F1(q, mu) q^n dq,
    F3 = F1 - n integral_1^Q F2(q, mu) q^{-(n+2)} dq.

g2 and g3 are evaluated here in closed form (verified against adaptive
quadrature of the defining integrals in the test suite).

Every shot runs _Shot, a DOP853 stepper on Python floats at RTOL, ATOL
with SciPy's first step, error norm and step-size control, on one
right-hand side, _qrrr.  A shot that keeps samples (the final shot of
find_mu_c, ``shoot --mu``) keeps the 7th-order interpolant of every step
and reads its samples off them.

SciPy is imported on the first call that needs it (a shot, q_star, a
spline), not with the module, so ``magma-lab diagnose`` and ``evolve``
(unless it embeds a profile) never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from .grid import Field, TorusGrid

__all__ = [
    "ProfileParams",
    "ProfileError",
    "Indeterminate",
    "BracketInvalid",
    "OrderingViolated",
    "TailTooShort",
    "DomainTooSmall",
    "StructureReport",
    "ShotClass",
    "ShotOutcome",
    "ShotSamples",
    "ProfileSolution",
    "DecayFit",
    "Rescaling",
    "RescaledProfile",
    "F1",
    "F2",
    "F3",
    "structure_fn",
    "mu_curve",
    "q_star",
    "structure_report",
    "integrate_shot",
    "find_mu_c",
    "decay_check",
    "rescale",
    "embed_on_torus",
    "ode_residual",
    "qr2_identity_gap",
    "write_profile_csv",
    "read_profile_csv",
]


class ProfileError(RuntimeError):
    """Base class for shooting-construction failures."""


class Indeterminate(ProfileError):
    """A shot satisfied no classification tolerance; enlarge r_max.

    ``shot`` is the shot when it reached r_max unsettled and can be
    continued (find_mu_c does so), else None.
    """

    def __init__(self, message: str, shot: _Shot | None = None):
        super().__init__(message)
        self.shot = shot


class BracketInvalid(ProfileError):
    """A bisection endpoint failed the classification that brackets mu_c."""


class OrderingViolated(ProfileError):
    """The mu-curve minima failed their guaranteed ordering or intersection."""


class TailTooShort(ProfileError):
    """Too few samples in the decay window to fit an envelope."""


class DomainTooSmall(ProfileError):
    """The torus does not accommodate the profile tail to 1e-8."""


@dataclass(frozen=True)
class ProfileParams:
    """Dimension d, exponent n, wave speed c, and shot curvature mu."""

    d: float
    n: float
    c: float
    mu: float | None = None

    def __post_init__(self) -> None:
        if not self.d > 0:
            raise ValueError("dimension d must be positive")
        if not 2.0 <= self.n <= 3.0:
            raise ValueError("exponent n must lie in [2, 3]")
        if not 1.55 <= self.c < self.n:
            raise ValueError("wave speed c must lie in [1.55, n)")
        if self.mu is not None and not self.mu < 0:
            raise ValueError("shot curvature mu must be negative")


# -- structure functions ----------------------------------------------------

def _g1(Q, n: float, c: float):
    return -(Q ** (1.0 - n) - 1.0) / (n - 1.0) - (n / c) * np.log(Q)


def _g2(Q, n: float, c: float):
    lnQ = np.log(Q)
    t1 = -((Q**2 - 1.0) / 2.0 - (Q ** (n + 1.0) - 1.0) / (n + 1.0)) / (n - 1.0)
    t2 = (Q ** (n + 1.0) * lnQ / (n + 1.0)
          - (Q ** (n + 1.0) - 1.0) / (n + 1.0) ** 2)
    return t1 - (n / c) * t2


def _g3(Q, n: float, c: float):
    lnQ = np.log(Q)
    alpha = -0.5 / (n - 1.0)
    beta = 1.0 / ((n - 1.0) * (n + 1.0)) + n / (c * (n + 1.0) ** 2)
    gamma = -n / (c * (n + 1.0))
    inner = (alpha * ((Q ** (1.0 - n) - 1.0) / (1.0 - n)
                      - (1.0 - Q ** (-n - 1.0)) / (n + 1.0))
             + beta * (lnQ - (1.0 - Q ** (-n - 1.0)) / (n + 1.0))
             + gamma * lnQ**2 / 2.0)
    return _g1(Q, n, c) - n * inner


def _h2(Q, n: float, d: float):
    return d * (Q ** (n + 1.0) - 1.0) / (n + 1.0)


def _h3(Q, n: float, d: float):
    lnQ = np.log(Q)
    return d * (1.0 - n * lnQ / (n + 1.0)
                - n * (Q ** (-n - 1.0) - 1.0) / (n + 1.0) ** 2)


def _check_Q_positive(Q) -> np.ndarray:
    arr = np.asarray(Q, dtype=np.float64)
    if not np.all(arr > 0.0):
        raise ValueError("Q must be strictly positive")
    return arr


def _require_mu(p: ProfileParams) -> float:
    if p.mu is None:
        raise ValueError("params carry no shot curvature mu")
    return p.mu


def _scalar_like(Q, out):
    return float(out) if np.isscalar(Q) or np.ndim(Q) == 0 else out


def F1(Q, p: ProfileParams):
    arr = _check_Q_positive(Q)
    return _scalar_like(Q, _g1(arr, p.n, p.c) + p.d * _require_mu(p))


def F2(Q, p: ProfileParams):
    arr = _check_Q_positive(Q)
    return _scalar_like(Q, _g2(arr, p.n, p.c) + _h2(arr, p.n, p.d) * _require_mu(p))


def F3(Q, p: ProfileParams):
    arr = _check_Q_positive(Q)
    return _scalar_like(Q, _g3(arr, p.n, p.c) + _h3(arr, p.n, p.d) * _require_mu(p))


def structure_fn(i: int, Q, p: ProfileParams):
    if i == 1:
        return F1(Q, p)
    if i == 2:
        return F2(Q, p)
    if i == 3:
        return F3(Q, p)
    raise ValueError("structure function index must be 1, 2 or 3")


@lru_cache(maxsize=None)
def q_star(n: float) -> float:
    """Unique root of h3 in (0, 1); independent of d."""
    if not n > 0:
        raise ValueError("exponent n must be positive")
    from scipy.optimize import bisect

    f = lambda q: _h3(q, n, 1.0)
    lo, hi = 1e-3, 1.0 - 1e-9
    if not (f(lo) < 0.0 < f(hi)):
        raise ProfileError("h3 does not change sign on the search interval")
    return float(bisect(f, lo, hi, xtol=1e-12))


def mu_curve(i: int, Q, p: ProfileParams):
    """The curve mu_i(Q) = -g_i(Q)/h_i(Q) on which F_i vanishes."""
    arr = _check_Q_positive(Q)
    if i == 1:
        if not np.all(arr < 1.0):
            raise ValueError("mu_1 is defined on (0, 1)")
        return _scalar_like(Q, -_g1(arr, p.n, p.c) / p.d)
    if i == 2:
        if not np.all(arr < 1.0):
            raise ValueError("mu_2 is defined on (0, 1); h2(1) = 0")
        return _scalar_like(Q, -_g2(arr, p.n, p.c) / _h2(arr, p.n, p.d))
    if i == 3:
        qs = q_star(p.n)
        if not (np.all(arr > qs) and np.all(arr < 1.0)):
            raise ValueError("mu_3 is defined on (Q_star, 1); h3(Q_star) = 0")
        return _scalar_like(Q, -_g3(arr, p.n, p.c) / _h3(arr, p.n, p.d))
    raise ValueError("curve index must be 1, 2 or 3")


@dataclass(frozen=True)
class StructureReport:
    Q_star: float
    Q1: float
    Q2: float
    Q3: float
    mu1_min: float
    mu2_min: float
    mu3_min: float
    intersection_gap: float


def _golden_min(f, lo: float, hi: float, xtol: float = 1e-12, seeds: int = 600):
    """Grid scan for the global bracket, then golden-section refinement."""
    xs = np.linspace(lo, hi, seeds)
    ys = f(xs)
    i = int(np.argmin(ys))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, seeds - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = float(f(x1))
    f2 = float(f(x2))
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = float(f(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = float(f(x2))
    xm = 0.5 * (a + b)
    # Comparing f values cannot place the minimizer better than the
    # sqrt(eps) noise plateau; one parabolic vertex step over a wider
    # stencil recovers the location to ~1e-12.
    h = 1e-5 * (hi - lo)
    if lo + h < xm < hi - h:
        fl, fm, fr = float(f(xm - h)), float(f(xm)), float(f(xm + h))
        curv = fl - 2.0 * fm + fr
        if curv > 0.0:
            step = 0.5 * h * (fl - fr) / curv
            if abs(step) < h:
                xm += step
    return xm, float(f(xm))


def _q1(p: ProfileParams) -> float:
    """Q1 = (c/n)^{1/(n-1)}: the minimizer of mu_1 and the decay threshold."""
    return (p.c / p.n) ** (1.0 / (p.n - 1.0))


def structure_report(p: ProfileParams) -> StructureReport:
    """Locate the minima of the three mu curves and check their ordering."""
    qs = q_star(p.n)
    eps = 1e-7 * (1.0 - qs)
    lo, hi = qs + eps, 1.0 - eps

    Q1 = _q1(p)
    mu1_min = float(mu_curve(1, Q1, p))
    Q2, mu2_min = _golden_min(lambda q: mu_curve(2, q, p), lo, hi)
    Q3, mu3_min = _golden_min(lambda q: mu_curve(3, q, p), lo, hi)

    if not (mu3_min < mu1_min < mu2_min < 0.0):
        raise OrderingViolated(
            f"expected mu3_min < mu1_min < mu2_min < 0, got "
            f"{mu3_min}, {mu1_min}, {mu2_min}"
        )
    gap = abs(float(mu_curve(1, Q2, p)) - mu2_min)
    if gap > 1e-8:
        raise OrderingViolated(
            f"mu1 and mu2 fail to intersect at Q2: gap {gap:.3e}"
        )
    return StructureReport(
        Q_star=qs, Q1=Q1, Q2=float(Q2), Q3=float(Q3),
        mu1_min=mu1_min, mu2_min=mu2_min, mu3_min=mu3_min,
        intersection_gap=gap,
    )


# -- shot integration -------------------------------------------------------

class ShotClass(Enum):
    CROSSED = "crossed_floor"  # fell through Q_star while strictly decreasing
    TURNED = "turned"          # Q_r reached zero at a finite radius
    FLAT = "flat"              # reached r_max essentially constant, above Q_star


@dataclass(frozen=True)
class ShotOutcome:
    classification: ShotClass
    r_star: float | None = None   # CROSSED: radius where Q hit the floor
    tau: float | None = None      # TURNED: turning radius
    subcase: str | None = None    # TURNED: "convex" | "degenerate" | "at_floor"
    Q_tau: float | None = None    # FLAT: extrapolated limit


@dataclass(frozen=True)
class ShotSamples:
    r: np.ndarray
    Q: np.ndarray
    Q_r: np.ndarray
    Q_rr: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r", "Q", "Q_r", "Q_rr"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DecayFit:
    M: float
    k: float
    L: float
    r_window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class ProfileSolution:
    params: ProfileParams          # mu is the critical curvature mu_c
    samples: ShotSamples
    Q_tau: float
    decay: DecayFit | None = None


R0 = 1e-6  # series start; quadratic truncation error O(r0^4)
SUBCASE_TOL = 1e-9
FLAT_TOL = 1e-9  # |Q_r| and |Q_rr| bound of a flat endpoint
RTOL, ATOL = 1e-10, 1e-12  # DOP853 tolerances of every shot
DR_SAMPLE = 0.01  # radial spacing of stored samples
WIDEN = 32.0  # find_mu_c doubles an indeterminate shot's radius up to WIDEN * r_max


def _qrrr(p: ProfileParams):
    """Q_rrr(r, Q, Q_r, Q_rr) on Python floats (NumPy's libm pow at a third of the cost)."""
    n, noc, dm1 = p.n, p.n / p.c, p.d - 1.0

    def qrrr(r, Q, Qr, Qrr):
        qinv = 1.0 / Q
        return (Qr * Q**-n - noc * Qr * qinv - n * Qr * Qrr * qinv
                - dm1 * (Qrr / r - Qr / (r * r)))

    return qrrr


def _series_start(mu: float) -> tuple[float, float, float]:
    return (1.0 + 0.5 * mu * R0**2, mu * R0, mu)


def _tail(r_max: float) -> list[float]:
    """The nine radii on which the flat test reads the curvature."""
    return np.linspace(r_max / 10.0, r_max, 9).tolist()


def _event_outcome(rf: float, rt: float, y_turn, qs: float) -> ShotOutcome:
    """Classify a shot stopped at the floor (radius rf) or a turn (rt, state y_turn)."""
    if abs(rf - rt) < 1e-12:
        return ShotOutcome(ShotClass.TURNED, tau=float(rt), subcase="at_floor")
    if rf < rt:
        return ShotOutcome(ShotClass.CROSSED, r_star=float(rf))
    Qt, _, Qrrt = y_turn
    if Qt - qs <= SUBCASE_TOL:
        sub = "at_floor"
    elif abs(Qrrt) <= SUBCASE_TOL:
        sub = "degenerate"
    elif Qrrt > 0.0:
        sub = "convex"
    else:
        raise Indeterminate("negative curvature at a turning event")
    return ShotOutcome(ShotClass.TURNED, tau=float(rt), subcase=sub)


# perfbench/tracing.py wraps this attribute to count a shot's RHS calls, but
# nothing here calls it; it goes when perfbench reads _Shot.nfev (ROADMAP).
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def integrate_shot(
    p: ProfileParams,
    r_max: float = 200.0,
    keep_samples: bool = True,
) -> tuple[ShotOutcome, ShotSamples | None]:
    """Integrate one shot and classify it.

    The state (Q, Q_r, Q_rr) starts at r0 = R0 from the even series
    Q = 1 + mu r0^2/2 and is integrated by DOP853 at RTOL, ATOL.  Terminal
    events: Q falling to Q_star, and Q_r rising to zero.  Reaching r_max
    with |Q_r| <= FLAT_TOL and settled curvature counts as flat; anything
    else raises Indeterminate.

    The shot runs _Shot.  A classification shot (keep_samples=False)
    builds the 7th-order interpolant only on steps that fire an event or
    pass a radius the flat test reads (nine tail radii, r_max/4, r_max/2).
    A shot that keeps samples builds it on every step and reads samples
    every DR_SAMPLE from it, ending at the event or at r_max.
    """
    if not R0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and exceed R0 = {R0}, got {r_max}")
    shot = _Shot(p, r_max, keep_samples)
    outcome = shot.classify(r_max)
    return outcome, shot.samples()


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, ch. II) with SciPy's
# tableau, read by the first _Shot into (j, a_j) pairs with the zero entries
# skipped.  Stage _END (weights b_j) is the step's end, stages _END+1.. feed
# the interpolant, and _E pairs the weights (e5_j, e3_j) of the two error
# estimates.  _load_dop853 binds these names, _C, _D (the interpolant's
# weights), Dop853DenseOutput, OdeSolution and brentq once per process.
def _nonzero(*rows) -> tuple:
    return tuple((j, *map(float, a)) for j, a in enumerate(zip(*rows)) if any(a))


@cache
def _load_dop853() -> None:
    """Bind the tableau, SciPy's interpolants and brentq; the first _Shot calls it."""
    global _END, _A, _C, _E, _D, Dop853DenseOutput, OdeSolution, brentq
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp import dop853_coefficients as t
    from scipy.integrate._ivp.rk import Dop853DenseOutput
    from scipy.optimize import brentq

    _END, _C, _D = t.N_STAGES, t.C.tolist(), t.D
    _A = [_nonzero(row[:s]) for s, row in enumerate(t.A)]
    _E = _nonzero(t.E5, t.E3)


_EVENT_TOL = 4 * np.finfo(float).eps  # solve_ivp's xtol and rtol of an event root


class _Shot:
    """A shot: DOP853 steps of (Q, Q_r, Q_rr) on Python floats.

    Steps are sized by SciPy's first-step guess, error norm and controller;
    stage s of the last attempt is kept as its derivative triple (U[s],
    V[s], W[s]) = (Q_r, Q_rr, Q_rrr).  The shot reads the probe radii of
    the flat test at r_max and at each doubling up to WIDEN * r_max as its
    steps pass them, so it can be continued to a larger radius.  A shot
    that keeps samples keeps every step's interpolant in ``steps`` (None
    otherwise).  It stops at its first event, with r and y the event's.
    ``nfev`` counts right-hand-side calls and ``rejected`` rejected step
    attempts.
    """

    def __init__(self, p: ProfileParams, r_max: float, keep_samples: bool = False):
        _load_dop853()
        self.qrrr, self.qs, self.mu = _qrrr(p), q_star(p.n), _require_mu(p)
        self.rtol, self.atol = RTOL, ATOL
        self.r, self.y = R0, _series_start(self.mu)
        self.w = self.qrrr(R0, *self.y)
        self.U, self.V, self.W = ([0.0] * len(_A) for _ in range(3))
        self.nfev, self.rejected = 1, 0
        self.h = self._first_step(r_max - R0)
        radii, r = set(), r_max
        while r <= WIDEN * r_max:
            radii.update(_tail(r) + [r / 4.0, r / 2.0])
            r *= 2.0
        self.pending = sorted(radii, reverse=True)
        self.seen: dict[float, np.ndarray] = {}
        self.steps: list[Dop853DenseOutput] | None = [] if keep_samples else None

    def _first_step(self, interval: float) -> float:
        """SciPy's select_initial_step, on arrays as there: solve_ivp's first step."""
        y0, f0 = np.array(self.y), np.array((self.y[1], self.y[2], self.w))
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = (np.linalg.norm(v / scale) / 3**0.5 for v in (y0, f0))
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        y1 = (y0 + h0 * f0).tolist()
        f1 = np.array((y1[1], y1[2], self.qrrr(self.r + h0, *y1)))
        self.nfev += 1
        d2 = np.linalg.norm((f1 - f0) / scale) / 3**0.5 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            return float(min(100.0 * h0, max(1e-6, h0 * 1e-3), interval))
        return float(min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.125, interval))

    def _stages(self, stages, r: float, Q: float, Qr: float, Qrr: float, h: float) -> float:
        """Evaluate the given stages of a step of h from r; returns Q at the last."""
        qrrr, U, V, W = self.qrrr, self.U, self.V, self.W
        for s in stages:
            su = sv = sw = 0.0
            for j, a in _A[s]:
                su += a * U[j]
                sv += a * V[j]
                sw += a * W[j]
            q = Q + h * su
            U[s] = qr = Qr + h * sv
            V[s] = qrr = Qrr + h * sw
            W[s] = qrrr(r + _C[s] * h, q, qr, qrr)
        self.nfev += len(stages)
        return q

    def step(self, r_bound: float) -> None:
        """Take one accepted step, ending at r_bound at the latest."""
        r, y, U, V, W = self.r, self.y, self.U, self.V, self.W
        U[0], V[0], W[0] = y[1], y[2], self.w
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h = max(self.h, min_step)
        rejected = False
        while True:
            if h < min_step:
                raise Indeterminate(f"integrator failed: step below {min_step:.3e} at r={r}")
            r_new = min(r + h, r_bound)
            h = r_new - r
            y_new = (self._stages(range(1, _END + 1), r, *y, h), U[_END], V[_END])
            sq, sr, srr = (self.atol + max(abs(a), abs(b)) * self.rtol for a, b in zip(y, y_new))
            e5q = e5r = e5rr = e3q = e3r = e3rr = 0.0
            for j, e5, e3 in _E:
                e5q += e5 * U[j]
                e5r += e5 * V[j]
                e5rr += e5 * W[j]
                e3q += e3 * U[j]
                e3r += e3 * V[j]
                e3rr += e3 * W[j]
            n5 = (e5q / sq) ** 2 + (e5r / sr) ** 2 + (e5rr / srr) ** 2
            n3 = (e3q / sq) ** 2 + (e3r / sr) ** 2 + (e3rr / srr) ** 2
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 3.0)
            if err < 1.0:
                break
            h *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
            self.rejected += 1
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        self.r_old, self.y_old, self.h_old = r, y, h
        self.r, self.y, self.w = r_new, y_new, W[_END]
        self.h = h * (min(1.0, factor) if rejected else factor)

    def dense(self) -> Dop853DenseOutput:
        """SciPy's 7th-order interpolant of the last step, r -> [Q, Q_r, Q_rr]."""
        r, h, y_old = self.r_old, self.h_old, self.y_old
        self._stages(range(_END + 1, len(_A)), r, *y_old, h)
        K = np.array((self.U, self.V, self.W)).T
        dy = np.subtract(self.y, y_old)
        F = np.vstack((dy, h * K[0] - dy, 2.0 * dy - h * (K[_END] + K[0]),
                       h * (_D @ K)))
        return Dop853DenseOutput(r, self.r, np.array(y_old), F)

    def classify(self, r_end: float) -> ShotOutcome:
        """Integrate on to r_end and classify the shot there."""
        qs, pending, steps = self.qs, self.pending, self.steps
        while self.r < r_end:
            q_old, qr_old, _ = self.y
            self.step(r_end)
            Q, Qr, _ = self.y
            floor = q_old >= qs >= Q  # the events as solve_ivp detects them
            turn = qr_old <= 0.0 <= Qr
            if not (floor or turn or steps is not None or (pending and pending[-1] <= self.r)):
                continue
            at = self.dense()
            if steps is not None:
                steps.append(at)
            if floor or turn:
                def root(g):
                    return brentq(g, self.r_old, self.r, xtol=_EVENT_TOL, rtol=_EVENT_TOL)

                rf = root(lambda r: at(r)[0] - qs) if floor else math.inf
                rt = root(lambda r: at(r)[1]) if turn else math.inf
                self.r = min(rf, rt)
                self.y = tuple(at(self.r))
                return _event_outcome(rf, rt, at(rt) if turn else None, qs)
            while pending and pending[-1] <= self.r:
                x = pending.pop()
                self.seen[x] = at(x)
        return self._flat(r_end)

    def _flat(self, r_end: float) -> ShotOutcome:
        """Classify a shot that reached r_end with no event, from its probes."""
        seen, (Qe, Qre, Qrre) = self.seen, self.y
        Qrr_tail = [abs(seen[r][2]) for r in _tail(r_end)]
        settled = (abs(Qre) <= FLAT_TOL and Qe > self.qs
                   and abs(Qrre) <= FLAT_TOL
                   and max(Qrr_tail) <= Qrr_tail[0] + 10 * FLAT_TOL)
        if not settled:
            raise Indeterminate(
                f"no event fired by r_max={r_end} and the endpoint is not flat "
                f"(Q_r={Qre:.3e}); enlarge r_max", self,
            )
        q_tau = _aitken_limit(float(seen[r_end / 4.0][0]), float(seen[r_end / 2.0][0]), float(Qe))
        return ShotOutcome(ShotClass.FLAT, Q_tau=float(q_tau))

    def widen(self, r_cap: float) -> ShotOutcome:
        """Continue an unsettled shot, doubling its radius up to r_cap."""
        r = self.r
        while True:
            r = min(2.0 * r, r_cap)
            try:
                return self.classify(r)
            except Indeterminate as exc:
                if exc.shot is None or r >= r_cap:
                    raise

    def samples(self) -> ShotSamples | None:
        """Samples at 0, every DR_SAMPLE and r, read off the kept interpolants."""
        if self.steps is None:
            return None
        interior = np.arange(DR_SAMPLE, self.r, DR_SAMPLE)
        if len(interior) and self.r - interior[-1] < 1e-9:
            interior = interior[:-1]
        sol = OdeSolution([R0] + [at.t for at in self.steps], self.steps)
        block = sol(interior) if len(interior) else np.zeros((3, 0))
        r = np.concatenate(([0.0], interior, [self.r]))
        return ShotSamples(r, *np.column_stack(((1.0, 0.0, self.mu), block, self.y)))


def _aitken_limit(a1: float, a2: float, a3: float) -> float:
    """Accelerated limit of Q from its values at three successive dyadic radii."""
    den = a1 - 2.0 * a2 + a3
    if abs(den) < 1e-15:
        return a3
    return a3 - (a3 - a2) ** 2 / den


def find_mu_c(
    p: ProfileParams,
    bisect_tol: float = 1e-12,
    r_max: float = 200.0,
) -> tuple[float, ProfileSolution]:
    """Bisect for the critical curvature and return the profile at mu_c.

    The bracket starts just below the mu_3 minimum (crossing shots) and at
    the mu_2 minimum (non-crossing shots); both classifications are
    verified up front and maintained by bisection, so the returned value
    is the upper endpoint: crossing occurs within bisect_tol below it.
    Shots use integrate_shot's RTOL, FLAT_TOL and DR_SAMPLE.

    Every bisection shot is a classification shot (integrate_shot with
    keep_samples=False) on r_max; the final shot at mu_c runs on 2*r_max
    and keeps its samples.  A shot that is still descending at its radius
    continues from its last state and step, doubling its radius up to
    WIDEN * r_max before giving up.  This is sound: the classifying events
    are terminal, so a decision reached at one radius is reached
    identically at any larger radius.  The final shot must again not cross
    the floor: a flat endpoint at r_max is no proof that the shot stays
    above it further out.
    """
    if not math.isfinite(bisect_tol):
        raise ValueError("bisect_tol must be finite")
    report = structure_report(p)
    lo = report.mu3_min * (1.0 + 1e-3)
    hi = report.mu2_min
    cap = WIDEN * r_max

    def shoot(mu: float, r: float, keep_samples: bool):
        try:
            return integrate_shot(replace(p, mu=mu), r_max=r, keep_samples=keep_samples)
        except Indeterminate as exc:
            if exc.shot is None:
                raise
            return exc.shot.widen(cap), exc.shot.samples()

    def classify(mu: float) -> ShotClass:
        return shoot(mu, r_max, False)[0].classification

    if classify(lo) is not ShotClass.CROSSED:
        raise BracketInvalid(f"shot at lo={lo} did not cross the floor")
    if classify(hi) is ShotClass.CROSSED:
        raise BracketInvalid(f"shot at hi={hi} crossed the floor")

    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if classify(mid) is ShotClass.CROSSED:
            lo = mid
        else:
            hi = mid
    mu_c = hi

    outcome, samples = shoot(mu_c, 2.0 * r_max, True)
    if outcome.classification is ShotClass.CROSSED:
        raise Indeterminate(
            f"critical shot crossed the floor at r={outcome.r_star}; increase r_max"
        )
    if float(samples.Q_r.max()) > 1e-12:
        raise ProfileError("critical shot is not monotone nonincreasing")

    if outcome.classification is ShotClass.FLAT:
        q_tau = float(outcome.Q_tau)
    else:
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(samples.r, samples.Q)
        r_end = samples.r[-1]
        q_tau = _aitken_limit(
            float(spline(r_end / 4.0)), float(spline(r_end / 2.0)), float(samples.Q[-1])
        )
    if not (report.Q_star < q_tau < 1.0):
        raise ProfileError(f"limit {q_tau} escaped (Q_star, 1)")

    solution = ProfileSolution(
        params=replace(p, mu=mu_c), samples=samples, Q_tau=q_tau,
    )
    return mu_c, solution


def _decay_rate(p: ProfileParams, q_tau: float) -> float:
    """L = Q_tau^{-n} - n/(c Q_tau): the squared linearized tail rate."""
    return q_tau ** (-p.n) - p.n / (p.c * q_tau)


def decay_check(sol: ProfileSolution) -> DecayFit | None:
    """Fit the exponential tail envelope when the decay criterion holds.

    Returns nothing when Q_tau >= (c/n)^{1/(n-1)}; that is a valid outcome,
    not an error.  The envelope is fitted on samples whose distance to
    Q_tau lies inside (1e-6, 1e-2); the wider window (1e-10, 1e-2) must
    hold at least 20 samples or the tail is deemed too short.
    """
    p = sol.params
    if not sol.Q_tau < _q1(p):
        return None
    L = _decay_rate(p, sol.Q_tau)
    if not L > 0:
        raise ProfileError("decay criterion held but L <= 0")

    delta = sol.samples.Q - sol.Q_tau
    window = (delta > 1e-10) & (delta < 1e-2)
    if int(window.sum()) < 20:
        raise TailTooShort(
            f"only {int(window.sum())} samples within (1e-10, 1e-2) of Q_tau"
        )
    fit = (delta > 1e-6) & (delta < 1e-2)
    if int(fit.sum()) < 2:
        raise TailTooShort("fit window holds fewer than 2 samples")
    r_fit = sol.samples.r[fit]
    slope, intercept = np.polyfit(r_fit, np.log(delta[fit]), 1)
    k = -float(slope)
    if not k > 0:
        raise ProfileError("fitted envelope rate is not positive")
    return DecayFit(
        M=float(np.exp(intercept)), k=k, L=float(L),
        r_window=(float(r_fit[0]), float(r_fit[-1])), n_samples=int(fit.sum()),
    )


# -- rescaling and embedding ------------------------------------------------

@dataclass(frozen=True)
class Rescaling:
    """Scale factors of the symmetry Q -> q0*Q, r -> q0^{n/2} r."""

    q0_bar: float
    c_bar: float
    r_scale: float
    mu_bar: float


@dataclass(frozen=True)
class RescaledProfile:
    scaling: Rescaling
    r: np.ndarray
    Q: np.ndarray


def _c_bar(p: ProfileParams, q0_bar: float) -> float:
    """Wave speed q0^(n-1) c after the rescaling Q -> q0*Q."""
    return q0_bar ** (p.n - 1.0) * p.c


def rescale(sol: ProfileSolution, q0_bar: float) -> RescaledProfile:
    if not q0_bar > 0:
        raise ValueError("scale factor must be positive")
    p = sol.params
    scaling = Rescaling(
        q0_bar=q0_bar,
        c_bar=_c_bar(p, q0_bar),
        r_scale=q0_bar ** (p.n / 2.0),
        mu_bar=q0_bar ** (1.0 - p.n) * _require_mu(p),
    )
    return RescaledProfile(
        scaling=scaling,
        r=scaling.r_scale * sol.samples.r,
        Q=q0_bar * sol.samples.Q,
    )


def _smoothstep5(s: np.ndarray) -> np.ndarray:
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def embed_on_torus(
    sol: ProfileSolution,
    grid: TorusGrid,
    center: tuple[float, ...] | None = None,
) -> Field:
    """Periodize the profile normalized to background 1 (q0 = 1/Q_tau).

    The physical radius is matched to the sample radius through the
    rescaling symmetry; outside the sampled range the field is exactly 1,
    joined by a C^2 bump over the final 5% of the sampled radius.  The
    torus must be large enough that the tail at half-domain distance
    deviates from 1 by less than 1e-8.
    """
    p = sol.params
    if float(grid.d) != float(p.d):
        raise ValueError(
            f"profile dimension {p.d} does not match grid dimension {grid.d}"
        )
    if center is None:
        center = tuple(L / 2.0 for L in grid.lengths)
    if len(center) != grid.d:
        raise ValueError("center must have one coordinate per axis")

    q0 = 1.0 / sol.Q_tau
    r_scale = q0 ** (p.n / 2.0)
    r_last = float(sol.samples.r[-1])
    R_bar = r_scale * r_last
    r_half = min(grid.lengths) / 2.0

    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(sol.samples.r, sol.samples.Q, extrapolate=False)

    if r_half <= R_bar:
        discrepancy = abs(q0 * float(interp(r_half / r_scale)) - 1.0)
    elif sol.decay is not None:
        discrepancy = q0 * sol.decay.M * math.exp(-sol.decay.k * r_half / r_scale)
    else:
        # no envelope fit: bound the wrapped tail by its value at the
        # end of the samples (the tail decreases toward Q_tau)
        discrepancy = q0 * (float(sol.samples.Q[-1]) - sol.Q_tau)
    if discrepancy >= 1e-8:
        raise DomainTooSmall(
            f"tail misses 1 by {discrepancy:.3e} at half-domain distance"
        )

    rho2 = np.zeros(grid.shape)
    for x, c0, L in zip(grid.coordinates(), center, grid.lengths):
        delta = np.abs(x - c0)
        delta = np.minimum(delta, L - delta)
        rho2 = rho2 + delta**2
    rho = np.sqrt(rho2)

    r_prof = rho / r_scale
    inside = r_prof <= r_last
    vals = np.ones(grid.shape)
    vals[inside] = q0 * interp(r_prof[inside])
    s = np.clip((rho / R_bar - 0.95) / 0.05, 0.0, 1.0)
    weight = 1.0 - _smoothstep5(s)
    return Field(grid, 1.0 + (vals - 1.0) * weight)


# -- verification helpers ---------------------------------------------------

def _qr_over_r(samples: ShotSamples) -> np.ndarray:
    """Q_r/r along the samples; at the center it takes its limit Q_rr(0)."""
    r, Qr = samples.r, samples.Q_r
    nz = r > 0
    w3 = samples.Q_rr.copy()
    w3[nz] = Qr[nz] / r[nz]
    return w3


def ode_residual(samples: ShotSamples, p: ProfileParams) -> np.ndarray:
    """Residual of the profile equation reconstructed from samples alone.

    The product terms Q^n, Q^n Q_rr and Q_r/r are differentiated through
    interpolating quintic splines, independent of the expanded form used
    during integration.
    """
    from scipy.interpolate import make_interp_spline

    r, Q, Qr, Qrr = samples.r, samples.Q, samples.Q_r, samples.Q_rr
    w1 = Q**p.n
    w2 = w1 * Qrr
    d1 = make_interp_spline(r, w1, k=5).derivative()(r)
    d2 = make_interp_spline(r, w2, k=5).derivative()(r)
    d3 = make_interp_spline(r, _qr_over_r(samples), k=5).derivative()(r)
    return -Qr + d1 / p.c + d2 + (p.d - 1.0) * w1 * d3


def qr2_identity_gap(samples: ShotSamples, p: ProfileParams) -> float:
    """Max gap in the slope-energy identity along a shot.

    0.5 Q^n Q_r^2 must equal F2(Q, mu) minus the quadrature of
    [ (n/2) int Q_r^2/q^2 dq + (d-1) Q_r/r ] Q^n dQ along the trajectory.
    """
    from scipy.integrate import cumulative_trapezoid

    mu = _require_mu(p)
    r, Q, Qr = samples.r, samples.Q, samples.Q_r
    inner = cumulative_trapezoid(Qr**3 / Q**2, r, initial=0.0)
    correction = cumulative_trapezoid(
        ((p.n / 2.0) * inner + (p.d - 1.0) * _qr_over_r(samples)) * Q**p.n * Qr,
        r, initial=0.0,
    )
    lhs = 0.5 * Q**p.n * Qr**2
    rhs = _g2(Q, p.n, p.c) + _h2(Q, p.n, p.d) * mu - correction
    return float(np.max(np.abs(lhs - rhs)))


# -- archive format ---------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_profile_csv(path, sol: ProfileSolution) -> None:
    """Profile archive: one commented metadata line, then r,Q,Q_r,Q_rr rows."""
    p = sol.params
    k = sol.decay.k if sol.decay is not None else float("nan")
    M = sol.decay.M if sol.decay is not None else float("nan")
    lines = [
        f"# d={_fmt(p.d)}, n={_fmt(p.n)}, c={_fmt(p.c)}, mu_c={_fmt(_require_mu(p))}, "
        f"Q_tau={_fmt(sol.Q_tau)}, Q_star={_fmt(q_star(p.n))}, k={_fmt(k)}, M={_fmt(M)}",
        "r,Q,Q_r,Q_rr",
    ]
    s = sol.samples
    for i in range(len(s.r)):
        lines.append(
            f"{_fmt(s.r[i])},{_fmt(s.Q[i])},{_fmt(s.Q_r[i])},{_fmt(s.Q_rr[i])}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path) -> ProfileSolution:
    """Read a profile archive; bad content raises ValueError naming ``path``."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("# "):
            raise ValueError("profile archive lacks its metadata line")
        meta: dict[str, float] = {}
        for item in lines[0][2:].split(", "):
            key, _, value = (part.strip() for part in item.partition("="))
            if key in meta:
                raise ValueError(f"profile metadata gives {key!r} twice")
            meta[key] = float(value)
        missing = [k for k in ("d", "n", "c", "mu_c", "Q_tau", "k", "M") if k not in meta]
        if missing:
            raise ValueError(f"profile metadata lacks {', '.join(missing)}")
        if meta["Q_tau"] <= 0.0:  # nan is allowed: a single shot has no limit
            raise ValueError("profile metadata Q_tau must be positive")
        if len(lines) < 2 or lines[1] != "r,Q,Q_r,Q_rr":
            raise ValueError("profile archive lacks the column header")
        rows = [line.split(",") for line in lines[2:] if line]
        if len(rows) < 2:  # interpolating the profile needs two radii
            raise ValueError(f"profile archive holds {len(rows)} sample rows, fewer than 2")
        for i, row in enumerate(rows, start=1):
            if len(row) != 4:
                raise ValueError(f"sample row {i} holds {len(row)} values, not 4")
            try:
                rows[i - 1] = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"sample row {i}: {exc}") from None
        data = np.array(rows, dtype=np.float64)
        rising = np.diff(data[:, 0]) > 0.0
        if not rising.all():
            raise ValueError(f"sample row {int(np.argmin(rising)) + 2}: r does not increase")
        params = ProfileParams(d=meta["d"], n=meta["n"], c=meta["c"], mu=meta["mu_c"])
        samples = ShotSamples(r=data[:, 0], Q=data[:, 1], Q_r=data[:, 2], Q_rr=data[:, 3])
        decay = None
        if math.isfinite(meta["k"]):
            decay = DecayFit(
                M=meta["M"], k=meta["k"], L=_decay_rate(params, meta["Q_tau"]),
                r_window=(float("nan"), float("nan")), n_samples=0,
            )
    except (ValueError, ArithmeticError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    return ProfileSolution(
        params=params, samples=samples, Q_tau=meta["Q_tau"], decay=decay,
    )
