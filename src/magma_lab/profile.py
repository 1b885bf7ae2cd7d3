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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator, make_interp_spline
from scipy.optimize import bisect

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
    """A shot satisfied no classification tolerance; enlarge r_max."""


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
    else raises Indeterminate.  Samples are kept every DR_SAMPLE; only a
    shot that keeps them carries dense output, and a classification shot
    reads the eleven radii of the flat test (tail, Aitken points) via t_eval.
    """
    mu = _require_mu(p)
    d, n, c = p.d, p.n, p.c
    qs = q_star(n)
    if not R0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and exceed R0 = {R0}, got {r_max}")

    dm1 = d - 1.0
    noc = n / c

    def odes(r, y):  # Python floats: the same libm pow at under a third of the cost
        r = float(r)
        Q, Qr, Qrr = y.tolist()
        qinv = 1.0 / Q
        Qrrr = (Qr * Q**-n - noc * Qr * qinv - n * Qr * Qrr * qinv
                - dm1 * (Qrr / r - Qr / (r * r)))
        return (Qr, Qrr, Qrrr)

    def ev_floor(r, y):
        return y[0] - qs

    ev_floor.terminal = True
    ev_floor.direction = -1.0

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1.0

    tail = np.linspace(r_max / 10.0, r_max, 9)
    probes = np.sort(np.concatenate((tail, [r_max / 4.0, r_max / 2.0])))
    y0 = (1.0 + 0.5 * mu * R0**2, mu * R0, mu)
    sol = solve_ivp(
        odes, (R0, r_max), y0, method="DOP853", rtol=RTOL, atol=ATOL,
        events=(ev_floor, ev_turn), dense_output=keep_samples,
        t_eval=None if keep_samples else probes,
    )
    if sol.status < 0:
        raise Indeterminate(f"integrator failed: {sol.message}")

    r_floor = sol.t_events[0]
    r_turn = sol.t_events[1]
    if len(r_floor) or len(r_turn):
        rf = r_floor[0] if len(r_floor) else np.inf
        rt = r_turn[0] if len(r_turn) else np.inf
        if abs(rf - rt) < 1e-12:
            outcome = ShotOutcome(ShotClass.TURNED, tau=float(rt), subcase="at_floor")
        elif rf < rt:
            outcome = ShotOutcome(ShotClass.CROSSED, r_star=float(rf))
        else:
            Qt, _, Qrrt = sol.y_events[1][0]
            if Qt - qs <= SUBCASE_TOL:
                sub = "at_floor"
            elif abs(Qrrt) <= SUBCASE_TOL:
                sub = "degenerate"
            elif Qrrt > 0.0:
                sub = "convex"
            else:
                raise Indeterminate("negative curvature at a turning event")
            outcome = ShotOutcome(ShotClass.TURNED, tau=float(rt), subcase=sub)
    else:
        Qe, Qre, Qrre = sol.y[:, -1]
        at = sol.sol if keep_samples else lambda r: sol.y[:, np.searchsorted(probes, r)]
        Qrr_tail = at(tail)[2]
        settled = (abs(Qre) <= FLAT_TOL and Qe > qs
                   and abs(Qrre) <= FLAT_TOL
                   and np.max(np.abs(Qrr_tail)) <= abs(Qrr_tail[0]) + 10 * FLAT_TOL)
        if not settled:
            raise Indeterminate(
                f"no event fired by r_max={r_max} and the endpoint is not flat "
                f"(Q_r={Qre:.3e}); enlarge r_max"
            )
        q_tau = _aitken_limit(
            float(at(r_max / 4.0)[0]), float(at(r_max / 2.0)[0]), float(Qe)
        )
        outcome = ShotOutcome(ShotClass.FLAT, Q_tau=float(q_tau))

    if not keep_samples:
        return outcome, None

    r_end = float(sol.t[-1])
    interior = np.arange(DR_SAMPLE, r_end, DR_SAMPLE)
    if len(interior) and r_end - interior[-1] < 1e-9:
        interior = interior[:-1]
    block = sol.sol(interior) if len(interior) else np.zeros((3, 0))
    y_end = sol.y[:, -1]
    samples = ShotSamples(
        r=np.concatenate(([0.0], interior, [r_end])),
        Q=np.concatenate(([1.0], block[0], [y_end[0]])),
        Q_r=np.concatenate(([0.0], block[1], [y_end[1]])),
        Q_rr=np.concatenate(([mu], block[2], [y_end[2]])),
    )
    return outcome, samples


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
    Shots use integrate_shot's RTOL, FLAT_TOL and DR_SAMPLE; the final
    shot at mu_c integrates to 2*r_max and keeps its samples.

    An indeterminate shot (still descending at r_max) doubles its radius
    up to 32*r_max before giving up.  This is sound: the classifying
    events are terminal, so a decision reached at one radius is reached
    identically at any larger radius.
    """
    if not math.isfinite(bisect_tol):
        raise ValueError("bisect_tol must be finite")
    report = structure_report(p)
    lo = report.mu3_min * (1.0 + 1e-3)
    hi = report.mu2_min
    cap = 32.0 * r_max

    def shoot(mu: float, r_first: float, keep: bool):
        r = r_first
        while True:
            try:
                return integrate_shot(replace(p, mu=mu), r_max=r, keep_samples=keep)
            except Indeterminate:
                if r >= cap:
                    raise
                r = min(2.0 * r, cap)

    def classify(mu: float) -> ShotClass:
        return shoot(mu, r_max, keep=False)[0].classification

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

    outcome, samples = shoot(mu_c, 2.0 * r_max, keep=True)
    if outcome.classification is ShotClass.CROSSED:
        raise Indeterminate(
            "critical shot crossed the floor on re-integration; increase r_max"
        )
    if float(samples.Q_r.max()) > 1e-12:
        raise ProfileError("critical shot is not monotone nonincreasing")

    if outcome.classification is ShotClass.FLAT:
        q_tau = float(outcome.Q_tau)
    else:
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
        if not rows:
            raise ValueError("profile archive holds no sample rows")
        for i, row in enumerate(rows, start=1):
            if len(row) != 4:
                raise ValueError(f"sample row {i} holds {len(row)} values, not 4")
            try:
                rows[i - 1] = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"sample row {i}: {exc}") from None
        data = np.array(rows, dtype=np.float64)
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
