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
located by a bisection that probes where crossing radii predict it.  Every
shot, single or searching, widens its radius through integrate_shot alone.

The analysis rests on three structure functions F_i(Q, mu), each affine
in mu as g_i(Q) + h_i(Q) mu:

    F1 = -(Q^{1-n}-1)/(n-1) - (n/c) ln Q + mu d,
    F2 = integral_1^Q F1(q, mu) q^n dq,
    F3 = F1 - n integral_1^Q F2(q, mu) q^{-(n+2)} dq.

g2 and g3 are evaluated here in closed form (verified against adaptive
quadrature of the defining integrals in the test suite).  _gh holds each
(g_i, h_i); structure_fn alone forms F_i and _mu alone mu_i = -g_i/h_i,
which mu_curve returns inside its domain.  At fixed mu,
dF2/dQ = Q^n F1 and dF3/dQ = g1'(Q) - n Q^{-(n+2)} F2, where g1'(Q) =
Q^{-n} - n/(c Q) is _decay_rate; so mu_2 is stationary where F1 vanishes
on it (mu_1 = mu_2), mu_3 where dF3/dQ does, and structure_report finds
each minimum as that root in (Q_star, Q1).

Q is even and analytic at r = 0, so every shot starts from its Taylor series
there, _series: N_TERMS coefficients in r^2 carry it to a start radius r0,
typically 2-4, with no integration.  From r0 it runs _Shot, a DOP853 stepper on
Python floats at RTOL, ATOL with SciPy's error norm and a predictive step-size
controller, on one right-hand side, _QRRR, as straight-line code generated from
SciPy's tableau with SciPy's operations in their order.  One method,
_Shot.dense, builds a step's 7th-order interpolant, and one evaluator, _dense,
reads every value a shot reports past r0 off it in SciPy's order.  A
classification shot builds it only on the step of an event, and brentq reads
each root off the one component it solves for.  A sampling shot (the final shot
of find_mu_c, ``shoot --mu``) builds one on every step and reads its samples
past r0 one component at a time, each step's coefficients repeated over its run
of samples; its samples up to r0 come off the series, _series_at.  SciPy's
solve_ivp and dense-output classes are the tests' oracle.

A shot's tail is read off its end state (r, Q, Q_r, Q_rr) alone; _tail_limit
alone decides its kind and limit, for the flat test, find_mu_c's Q_tau and
decay_check's k = sqrt(L(Q_tau)): the linearised tail's fixed point on the
exponential side (_tail_rate), else Q1 for d > 4 (the algebraic tail Q1 +
A/r^2) or none.  _hermite alone reads stored samples between radii.  SciPy is
imported on the first call that needs it (a shot, q_star, ode_residual's
splines), not with the module, so ``diagnose``, ``embed`` and ``evolve`` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, lru_cache
from operator import mul
from typing import Iterable

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
    "write_profile_csv",
    "read_profile_csv",
]


class ProfileError(RuntimeError):
    """Base class for shooting-construction failures."""


class Indeterminate(ProfileError):
    """A shot was unsettled at WIDEN * r_max, or its integrator failed; enlarge r_max."""


class BracketInvalid(ProfileError):
    """A bracket endpoint failed the classification that brackets mu_c."""


class OrderingViolated(ProfileError):
    """A mu-curve minimum is not a single interior root, or the minima are misordered."""


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
        if not 0 < self.d < math.inf:
            raise ValueError("dimension d must be positive and finite")
        if not 2.0 <= self.n <= 3.0:
            raise ValueError("exponent n must lie in [2, 3]")
        if not 1.55 <= self.c < self.n:
            raise ValueError("wave speed c must lie in [1.55, n)")
        if self.mu is not None and not -math.inf < self.mu < 0:
            raise ValueError("shot curvature mu must be negative and finite")


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


def _gh(i: int, Q, p: ProfileParams) -> tuple:
    """(g_i(Q), h_i(Q)) of F_i = g_i + h_i mu, with h_1 = d."""
    if i == 1:
        return _g1(Q, p.n, p.c), p.d
    if i == 2:
        return _g2(Q, p.n, p.c), _h2(Q, p.n, p.d)
    if i == 3:
        return _g3(Q, p.n, p.c), _h3(Q, p.n, p.d)
    raise ValueError("structure function index must be 1, 2 or 3")


def _mu(i: int, Q, p: ProfileParams):
    """mu_i(Q) = -g_i(Q)/h_i(Q), with no domain check."""
    g, h = _gh(i, Q, p)
    return -g / h


def structure_fn(i: int, Q, p: ProfileParams):
    """F_i(Q, mu) = g_i(Q) + h_i(Q) mu at the params' mu."""
    arr = _check_Q_positive(Q)
    g, h = _gh(i, arr, p)
    return _scalar_like(Q, g + h * _require_mu(p))


def F1(Q, p: ProfileParams):
    return structure_fn(1, Q, p)


def F2(Q, p: ProfileParams):
    return structure_fn(2, Q, p)


def F3(Q, p: ProfileParams):
    return structure_fn(3, Q, p)


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
    """The curve mu_i(Q) = -g_i(Q)/h_i(Q) on which F_i vanishes: (Q_star, 1) for
    mu_3, where h3(Q_star) = 0, and (0, 1) for the others."""
    arr = _check_Q_positive(Q)
    lo = q_star(p.n) if i == 3 else 0.0
    if i in (1, 2, 3) and not (np.all(arr > lo) and np.all(arr < 1.0)):
        raise ValueError(f"mu_{i} is defined on ({lo!r}, 1)")
    return _scalar_like(Q, _mu(i, arr, p))


@dataclass(frozen=True)
class StructureReport:
    Q_star: float
    Q1: float
    Q2: float
    Q3: float
    mu1_min: float
    mu2_min: float
    mu3_min: float


def _q1(p: ProfileParams) -> float:
    """Q1 = (c/n)^{1/(n-1)}: the minimizer of mu_1 and the decay threshold."""
    return (p.c / p.n) ** (1.0 / (p.n - 1.0))


def _falling_root(f, lo: float, hi: float, name: str) -> float:
    """The root of f inside (lo, hi), where f must fall through zero once."""
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, 60)
    with np.errstate(all="ignore"):  # a condition past the float range has no root here
        ys = f(xs)
    pos = ys > 0.0
    flips = np.flatnonzero(pos[:-1] != pos[1:])
    if np.all(np.isfinite(ys)) and pos[0] and len(flips) == 1:
        i = flips[0]
        x = brentq(lambda q: float(f(q)), xs[i], xs[i + 1], xtol=1e-15)
        if x < hi:
            return x
    raise OrderingViolated(f"the stationarity condition of {name} does not fall "
                           f"through zero once inside ({lo!r}, {hi!r})")


def structure_report(p: ProfileParams) -> StructureReport:
    """Locate the minima of the three mu curves and check their ordering.

    The stationarity conditions (module docstring), mu_1 - mu_2 for mu_2
    and dF3/dQ on mu_3 for mu_3, must fall from + to - in (Q_star, Q1),
    which makes each root a minimum.
    """
    qs, Q1 = q_star(p.n), _q1(p)
    if not Q1 < 1.0:
        raise OrderingViolated(f"Q1 = (c/n)^(1/(n-1)) rounds to 1 at n={p.n!r}, c={p.c!r}")

    def dF3(q):  # on mu_3, in the order g2 - h2 g3/h3: g2 + h2 mu_3 rounds otherwise
        (g2, h2), (g3, h3) = _gh(2, q, p), _gh(3, q, p)
        return _decay_rate(p, q) - p.n * q ** (-p.n - 2.0) * (g2 - h2 * g3 / h3)

    lo = qs + 1e-7 * (1.0 - qs)
    Q2 = _falling_root(lambda q: _mu(1, q, p) - _mu(2, q, p), lo, Q1, "mu_2")
    Q3 = _falling_root(dF3, lo, Q1, "mu_3")
    mu1_min, mu2_min, mu3_min = (float(mu_curve(i, q, p))
                                 for i, q in ((1, Q1), (2, Q2), (3, Q3)))
    if not (mu3_min < mu1_min < mu2_min < 0.0):
        raise OrderingViolated(f"expected mu3_min < mu1_min < mu2_min < 0, got "
                               f"{mu3_min}, {mu1_min}, {mu2_min}")
    return StructureReport(Q_star=qs, Q1=Q1, Q2=Q2, Q3=Q3,
                           mu1_min=mu1_min, mu2_min=mu2_min, mu3_min=mu3_min)


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
    Q_tau: float | None = None    # FLAT: limit read off the end state


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


@dataclass(frozen=True)
class ProfileSolution:
    params: ProfileParams          # mu is the critical curvature mu_c
    samples: ShotSamples
    Q_tau: float
    decay: DecayFit | None = None  # decay_check's fit, made by find_mu_c and on read


SUBCASE_TOL = 1e-9
FLAT_TOL = 1e-9  # |Q_r| and |Q_rr| bound of a flat endpoint
RTOL, ATOL = 1e-10, 1e-12  # DOP853 tolerances of every shot
DR_SAMPLE = 0.01  # radial spacing of stored samples
WIDEN = 32.0  # integrate_shot doubles an unsettled shot's radius up to WIDEN * r_max
N_TERMS = 16  # even Taylor coefficients of the series start, up to r^(2 N_TERMS - 2)
MAX_NFEV = 200_000  # a shot past this many RHS calls is indeterminate; d = 50 needs 3,000
TAIL_ITERS = 32  # _tail_limit's cap on fixed-point iterations; the grid's cells take 3-10


# Q_rrr(r, Q, Qr, Qrr) with noc = n/c, dm1 = d-1, on floats (libm pow as NumPy's)
_QRRR = ("Qr * Q**-n - noc * Qr * (qinv := 1.0 / Q) - n * Qr * Qrr * qinv"
         " - dm1 * (Qrr / r - Qr / (r * r))")


def _stepper(p: ProfileParams) -> tuple:
    """(qrrr, trial, extend) of p at RTOL, ATOL: trial(r, *y, Qrrr, h, U, V, W) -> (y_new, err)
    fills stages 0.._END of U, V, W; extend(r, *y, h, U, V, W) the interpolant's stages."""
    _load_dop853()
    return _make_stepper(p.n, p.n / p.c, p.d - 1.0, RTOL, ATOL)


def _series(p: ProfileParams, mu: float) -> np.ndarray:
    """The shot's Taylor coefficients at r = 0 in x = r^2, shape (N_TERMS, 4).

    Row i holds the x^i coefficients of Q, Q_r/r, Q_rr and the positive part
    of Q_r/r - mu, which bounds Q_r/r from above for x > 0.  With Q = sum b_i
    x^i, the left side Q_rrr + (d-1)(Q_rr/r - Q_r/r^2) of _QRRR is r sum L_i
    x^i, L_i = 2m(2m-2)(2m+d-2) b_m at m = i + 2; multiplied by Q, the right
    side is r P V with P = Q_r/r and V = Q^(1-n) - n/c - n Q_rr, so L_i =
    [P V]_i - sum_(j>=1) b_j L_(i-j).  Q^(1-n) follows from J. C. P. Miller's
    recurrence for a power of a series (Knuth, TAOCP vol. 2, 4.7).
    """
    n, noc, d = p.n, p.n / p.c, p.d
    b, ib = [0.5 * mu], [0.5 * mu]  # b_1, b_2, ... (b_0 = 1) and i b_i
    P, S, V, E, L = [mu], [mu], [1.0 - noc - n * mu], [1.0], []  # E = Q^(1-n)
    for k in range(1, N_TERMS - 1):  # b_(k+1), then E_k and V_k
        m = k + 1
        L.append(sum(map(mul, P, reversed(V))) - sum(map(mul, b, reversed(L))))
        bm = L[-1] / (2 * m * (2 * m - 2) * (2 * m + d - 2.0))
        b.append(bm)
        ib.append(m * bm)
        P.append(2 * m * bm)
        S.append(2 * m * (2 * m - 1) * bm)
        E.append((2.0 - n) / k * sum(map(mul, ib, reversed(E))) - sum(map(mul, b, reversed(E))))
        V.append(E[k] - n * S[k])
    if not (math.isfinite(sum(map(abs, b))) and abs(b[-1]) >= np.finfo(float).tiny):
        raise ProfileError(f"the series at r = 0 leaves the float range at d={d!r}, mu={mu!r}")
    P.append(0.0)  # the x^(N_TERMS - 1) terms of Q_r/r and Q_rr need b_(N_TERMS)
    S.append(0.0)
    return np.array(([1.0] + b, P, S, [0.0] + [max(c, 0.0) for c in P[1:]])).T


def _series_at(C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows (Q, Q_r, Q_rr, bound of Q_r/r - mu) at the radii r off the coefficients C."""
    out = np.vander(r * r, len(C), increasing=True) @ C
    out[:, 1] *= r
    return out


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

    The state (Q, Q_r, Q_rr) starts at r0 from the even Taylor series of
    Q at r = 0 (_Shot._start: at most r_max/20, with Q > Q_star and Q_r < 0
    on (0, r0], so no event lies there) and is integrated by DOP853 at
    RTOL, ATOL.  Terminal events: Q falling to Q_star, and Q_r rising to
    zero.  A shot that reaches its radius is classified from its end state
    alone (_Shot._flat).  One still unsettled there continues from its last
    state and step at twice the radius, then four times, up to WIDEN *
    r_max; this is sound, since the events are terminal, so a class reached
    at one radius is reached identically at any larger one.  A shot
    unsettled at WIDEN * r_max, or past MAX_NFEV RHS calls, raises
    Indeterminate.  A mu or d that takes the series out of the float range,
    or an r_max so small that Q_rrr at r0 leaves it, raises ProfileError.

    The shot runs _Shot (module docstring); one that keeps samples reads
    them every DR_SAMPLE, ending at the event or at its last radius.
    """
    cap = WIDEN * r_max
    if not (0.0 < r_max and cap < math.inf):
        raise ValueError(f"r_max must be positive with {WIDEN:g} * r_max finite, got {r_max}")
    shot, r = _Shot(p, r_max, keep_samples), r_max
    while (outcome := shot.classify(r)) is None:
        if r >= cap:
            raise Indeterminate(f"no event fired by r_max={r} and the endpoint is not flat "
                                f"(Q_r={shot.y[1]:.3e}); enlarge r_max")
        r = min(2.0 * r, cap)
    return outcome, shot.samples()


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, ch. II) with SciPy's
# tableau, read by the first _Shot into (j, a_j) pairs with the zero entries
# skipped.  Stage _END (weights b_j) is the step's end, stages _END+1.. feed
# the interpolant, and _E pairs the weights (e5_j, e3_j) of the two error
# estimates.  _load_dop853 binds these names and _C, _D (the interpolant's
# weights) once per process, and generates _make_stepper: the (j, a_j)
# loops' operations, in order, unrolled.
def _nonzero(*rows) -> tuple:
    return tuple((j, *map(float, a)) for j, a in enumerate(zip(*rows)) if any(a))


@cache
def _load_dop853() -> None:
    """Bind the tableau and generate _make_stepper."""
    global _END, _A, _C, _E, _D
    from scipy.integrate._ivp import dop853_coefficients as t

    _END, _C, _D = t.N_STAGES, t.C.tolist(), t.D
    _A = [_nonzero(row[:s]) for s, row in enumerate(t.A)]
    _E = _nonzero(t.E5, t.E3)

    def total(terms, v):  # sum of a_j v_j from 0.0 in rising j
        return "(0.0" + "".join(f" + {a!r} * {v}{j}" for j, a in terms) + ")"

    def stages(ss):  # stages ss of a step of h from (x, y0, y1, y2) into u_s, v_s, w_s
        return [line for s in ss for line in (
            f"r = x + {_C[s]!r} * h", f"Q = y0 + h * {total(_A[s], 'u')}",
            f"u{s} = Qr = y1 + h * {total(_A[s], 'v')}",
            f"v{s} = Qrr = y2 + h * {total(_A[s], 'w')}", f"w{s} = {_QRRR}")]

    def norm(k):  # squared scaled norm of the error estimate of weights e[k]
        return " + ".join(f"({total([(e[0], e[k]) for e in _E], v)} / s{v}) ** 2" for v in "uvw")

    def kept(ss):  # ("U[i:j]", "ui, ..., u(j-1)") for U, V, W over the stages ss
        return [(f"{L}[{ss[0]}:{ss[-1] + 1}]", ", ".join(f"{v}{s}" for s in ss))
                for L, v in zip("UVW", "uvw")]

    old, new = range(_END + 1), range(_END + 1, len(_A))
    defs = {
        "qrrr(r, Q, Qr, Qrr)": ["return " + _QRRR],
        "trial(x, y0, y1, y2, w0, h, U, V, W)": [
            "u0, v0 = y1, y2", *stages(old[1:]),
            *(f"s{v} = atol + max(abs(y{i}), abs({q})) * rtol"
              for i, (v, q) in enumerate(zip("uvw", ("Q", f"u{_END}", f"v{_END}")))),
            f"n5 = {norm(1)}", f"n3 = {norm(2)}", *(f"{L} = {us}" for L, us in kept(old)),
            f"return (Q, u{_END}, v{_END}), (0.0 if n5 == 0.0 and n3 == 0.0"
            " else h * n5 / math.sqrt((n5 + 0.01 * n3) * 3.0))"],
        "extend(x, y0, y1, y2, h, U, V, W)": [
            *(f"{us} = {L}" for L, us in kept(old)), *stages(new),
            *(f"{L} = {us}" for L, us in kept(new))],
    }
    exec("def _make_stepper(n, noc, dm1, rtol, atol):\n" + "".join(
        f"    def {sig}:\n" + "".join(f"        {line}\n" for line in body)
        for sig, body in defs.items()) + "    return qrrr, trial, extend\n", globals())


_EVENT_TOL = 4 * np.finfo(float).eps  # solve_ivp's xtol and rtol of an event root


def _dense(t, r_old, r, y_old, rows):
    """Interpolant of the step r_old..r at t off rows F[6], ..., F[0] (floats or arrays)."""
    x, y = (t - r_old) / (r - r_old), 0.0
    for i, f in enumerate(rows):  # SciPy's DOP853 dense output's operations, in its order
        y = (y + f) * (1 - x if i % 2 else x)
    return y + y_old


class _Shot:
    """A shot: the series up to r0, then DOP853 steps of (Q, Q_r, Q_rr) on Python floats.

    The first step is r0.  An attempt of SciPy error norm err >= 1 is retried at max(0.2, 0.9
    err^(-1/8)) times its step; after an accepted step h the next is h min(10, 0.9 err^(-1/8),
    0.9 (h/h_old)(err_old/err^2)^(1/8)), Gustafsson's predictive controller as in RADAU5
    (Hairer & Wanner, Solving ODEs II, IV.8), where h_old is the last accepted step as taken,
    clipped at r_bound or not, and err_old its err, at least 1e-2.  The first step has no
    h_old, err = 0 gives 10 h, a step after a rejection does not grow, and a shot classified
    again on a larger radius keeps h_old and err_old.  Stage s of the last attempt is kept as
    (U[s], V[s], W[s]) = (Q_r, Q_rr, Q_rrr); a sampling shot keeps every step's (r_old, r,
    y_old, F) in ``steps`` (None otherwise).  A shot stops at its first event, with r and y the
    event's, or can be continued past its radius; ``nfev`` counts RHS calls and ``rejected``
    rejected attempts.  integrate_shot alone makes one.
    """

    def __init__(self, p: ProfileParams, r_max: float, keep_samples: bool = False):
        self.p = p
        self.qrrr, self.trial, self.extend = _stepper(p)
        self.qs, self.mu = q_star(p.n), _require_mu(p)
        self.series = _series(p, self.mu)
        self.r0, self.y = self._start(r_max)
        self.r = self.h = self.r0  # the first step spans the series' own radius
        try:
            self.w = self.qrrr(self.r, *self.y)
        except ArithmeticError:  # r0 * r0 underflowed, or Q_rrr left the float range
            raise ProfileError(f"Q_rrr leaves the float range at r0={self.r0!r}") from None
        self.U, self.V, self.W = ([0.0] * len(_A) for _ in range(3))
        self.nfev, self.rejected, self.err_old = 1, 0, 0.0
        self.steps: list[tuple] | None = [] if keep_samples else None

    def _start(self, r_max: float) -> tuple[float, tuple[float, float, float]]:
        """The start radius r0 and the series' (Q, Q_r, Q_rr) there.

        r0 is where the last two terms of each series fall below ATOL, at most
        r_max/20; it halves until Q(r0) > Q_star and the bound keeps Q_r < 0
        on (0, r0], so no event lies in [0, r0].
        """
        C, mu = self.series, self.mu
        x = math.inf
        for j in (N_TERMS - 2, N_TERMS - 1):
            b = abs(float(C[j, 0]))
            for a, e in ((b, j), (2 * j * b, j - 0.5), (2 * j * (2 * j - 1) * b, j - 1)):
                if a > 0.0:
                    x = min(x, (ATOL / a) ** (1.0 / e))
        r0 = min(math.sqrt(x), r_max / 20.0)
        for _ in range(64):
            Q, Qr, Qrr, rise = _series_at(C, np.array([r0]))[0].tolist()
            if Q > self.qs and mu + rise < 0.0:
                return r0, (Q, Qr, Qrr)
            r0 *= 0.5
        raise ProfileError(f"mu={mu!r}: no start radius keeps the series above Q_star and falling")

    def step(self, r_bound: float) -> None:
        """Take one accepted step, ending at r_bound at the latest, and size the next."""
        r, y = self.r, self.y
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h = max(self.h, min_step)
        rejected = False
        while True:
            if h < min_step:
                raise Indeterminate(f"integrator failed: step below {min_step:.3e} at r={r}")
            if self.nfev > MAX_NFEV:
                raise Indeterminate(f"integrator failed: over {MAX_NFEV} RHS calls by r={r}")
            r_new = min(r + h, r_bound)
            h = r_new - r
            try:
                y_new, err = self.trial(r, *y, self.w, h, self.U, self.V, self.W)
            except (TypeError, ArithmeticError):  # a stage took Q below 0 (Q**n is complex)
                err = math.inf  # or left the float range: rejected, as SciPy rejects a nan norm
            self.nfev += _END
            if err < 1.0:
                break
            h *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
            self.rejected += 1
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        if err and self.err_old:  # Gustafsson's prediction off the last accepted step too
            factor = min(factor, 0.9 * h / self.h_old * (self.err_old / err / err) ** 0.125)
        self.r_old, self.y_old, self.h_old, self.err_old = r, y, h, max(err, 1e-2)
        self.r, self.y, self.w = r_new, y_new, self.W[_END]
        self.h = h * (min(1.0, factor) if rejected else factor)

    def dense(self):
        """The last step's interpolant, r -> (Q, Q_r, Q_rr) on floats, or (r, c) -> component
        c alone; it extends U, V, W by the interpolant's stages, and a sampling shot keeps it."""
        r_old, h, y_old, U, V, W = self.r_old, self.h_old, self.y_old, self.U, self.V, self.W
        self.extend(r_old, *y_old, h, U, V, W)
        self.nfev += len(_A) - _END - 1
        K = np.array((U, V, W)).T
        dy = np.subtract(self.y, y_old)
        F = np.vstack((dy, h * K[0] - dy, 2.0 * dy - h * (K[_END] + K[0]), h * (_D @ K)))
        if self.steps is not None:
            self.steps.append((r_old, self.r, y_old, F))
        reads = [(r_old, self.r, y0, rows) for y0, rows in zip(y_old, F[::-1].T.tolist())]
        return lambda t, c=None: (tuple(_dense(t, *r) for r in reads) if c is None
                                  else _dense(t, *reads[c]))

    def classify(self, r_end: float) -> ShotOutcome | None:
        """Integrate on to r_end and classify the shot there; None if it is unsettled."""
        qs = self.qs
        while self.r < r_end:
            q_old, qr_old, _ = self.y
            self.step(r_end)
            Q, Qr, _ = self.y
            floor = q_old >= qs >= Q  # the events as solve_ivp detects them
            turn = qr_old <= 0.0 <= Qr
            if floor or turn:
                from scipy.optimize import brentq

                at = self.dense()

                def root(g):
                    return brentq(g, self.r_old, self.r, xtol=_EVENT_TOL, rtol=_EVENT_TOL)

                rf = root(lambda r: at(r, 0) - qs) if floor else math.inf
                rt = root(lambda r: at(r, 1)) if turn else math.inf
                self.r = min(rf, rt)
                self.y = at(self.r)
                return _event_outcome(rf, rt, at(rt) if turn else None, qs)
            if self.steps is not None:
                self.dense()
        return self._flat()

    def _flat(self) -> ShotOutcome | None:
        """Classify a shot that reached its radius r with no event, from its end state alone.

        Flat: |Q_r| and |Q_rr| at most FLAT_TOL, Q > Q_star, and the growing
        mode's part of q = Q - Q_tau at most the decaying mode's.  To leading
        order in 1/(k r), k = sqrt(L(Q_tau)) and s = (d-1)/(2r), the modes have
        q'/q = -k - s and k - s, so the growing part is (Q_r + (k + s) q)/(2k).
        Q_tau is _tail_limit's; an algebraic tail (Q_tau = Q1) has no growing
        mode.  None where the shot is not flat or no limit reads.
        """
        r, (Q, Qr, Qrr) = self.r, self.y
        if abs(Qr) <= FLAT_TOL and abs(Qrr) <= FLAT_TOL and Q > self.qs:
            q_tau = _tail_limit(self.p, r, self.y)
            if q_tau is None or q_tau == _q1(self.p):  # unsettled, or algebraic: no growing mode
                return None if q_tau is None else ShotOutcome(ShotClass.FLAT, Q_tau=q_tau)
            k, q = math.sqrt(_decay_rate(self.p, q_tau)), Q - q_tau
            grow = (Qr + (k + 0.5 * (self.p.d - 1.0) / r) * q) / (2.0 * k)
            if abs(grow) <= abs(q - grow):
                return ShotOutcome(ShotClass.FLAT, Q_tau=q_tau)
        return None

    def samples(self) -> ShotSamples | None:
        """Samples at 0, every DR_SAMPLE and r: those up to r0 read off the series in one
        pass, the rest off the kept interpolants one component at a time."""
        if self.steps is None:
            return None
        interior = np.arange(DR_SAMPLE, self.r, DR_SAMPLE)
        if len(interior) and self.r - interior[-1] < 1e-9:
            interior = interior[:-1]
        r = np.concatenate(([0.0], interior, [self.r]))
        j = 1 + np.searchsorted(interior, self.r0, side="right")  # the first sample past r0
        out = np.empty((3, len(r)))
        out[:, 0], out[:, -1] = (1.0, 0.0, self.mu), self.y
        out[:, 1:j] = _series_at(self.series, r[1:j])[:, :3].T
        far = r[j:-1]
        if len(far):
            r_old, r_end, y_old, F = zip(*self.steps)
            # step k reads the samples its end is the first to reach: SciPy's pick
            counts = np.bincount(np.searchsorted(r_end, far), minlength=len(r_end))
            r_old, r_end = np.repeat(r_old, counts), np.repeat(r_end, counts)
            y_old, F = np.array(y_old), np.array(F)
            for c, row in enumerate(out[:, j:-1]):  # one (samples,) row of F at a time
                rows = (np.repeat(F[:, i, c], counts) for i in reversed(range(F.shape[1])))
                row[:] = _dense(far, r_old, r_end, np.repeat(y_old[:, c], counts), rows)
        return ShotSamples(r, *out)


def _hermite(s: ShotSamples, r):
    """Q at r off the quintic Hermite of (Q, Q_r, Q_rr) on the samples' interval holding r."""
    i = np.clip(np.searchsorted(s.r, r) - 1, 0, len(s.r) - 2)
    h = s.r[i + 1] - s.r[i]
    t = (r - s.r[i]) / h

    def end(k, t, u, h):  # sample k's basis terms at t, with u = 1 - t: exact at t = 0 and 1
        return u**3 * ((1.0 + 3.0 * t + 6.0 * t * t) * s.Q[k]
                       + t * h * ((1.0 + 3.0 * t) * s.Q_r[k] + 0.5 * t * h * s.Q_rr[k]))

    return end(i, t, 1.0 - t, h) + end(i + 1, 1.0 - t, t, -h)


# Near mu_c a crossing shot follows the critical profile and leaves it at a
# radius r_star for which ln(mu_c - mu) is linear in x(r_star): x(r) = r for
# d <= 4, x(r) = ln r for d = 7.  A model is the pair (x(r), ln r of x).
_MODELS = ((lambda r: r, math.log), (math.log, lambda x: x))
FIT_BACKOFF = 0.05  # a predicted probe sits this share of the predicted distance below mu_c
FIT_FAILS = 2  # predicted probes in a row that fail to halve the bracket force a bisection


def _fit(shots, x, hi: float) -> tuple[float, float] | None:
    """Fit ln(mu_c - mu) = a + b x(r), mu_c in (newest mu, hi), to three crossing
    shots (mu, r) in rising mu; returns mu_c minus the newest mu, and b."""
    from scipy.optimize import brentq

    (m1, r1), (m2, r2), (m3, r3) = shots
    x1, x2, x3 = x(r1), x(r2), x(r3)
    if not (m1 < m2 < m3 < hi and x1 < x2 < x3):
        return None

    def gap(s):  # slope of chord 1-2 minus that of chord 2-3 when mu_c = m3 + e^s
        L2 = math.log(m3 - m2 + math.exp(s))
        return (math.log(m3 - m1 + math.exp(s)) - L2) / (x1 - x2) - (L2 - s) / (x2 - x3)

    s_hi = math.log(hi - m3)
    if not gap(s_hi) < 0.0 < gap(s_hi - 50.0):
        return None
    s = brentq(gap, s_hi - 50.0, s_hi)
    return math.exp(s), (math.log(m3 - m2 + math.exp(s)) - s) / (x2 - x3)


def _predict(crossings, hi: float) -> float | None:
    """Distance from the newest crossing shot to mu_c, fitted to the last three
    by the model whose fit to the three before best predicted the newest radius."""
    def miss(model):
        x, ln_r = model
        *before, (mu, r) = crossings[-4:]
        (m3, r3), fit = before[-1], _fit(before, x, hi)
        # b is 0 only when m3 - m2 is below the rounding of mu_c - m2
        if fit is None or not (m3 + fit[0] > mu and fit[1] < 0.0):
            return math.inf
        delta, b = fit
        return abs(ln_r(x(r3) + math.log((m3 + delta - mu) / delta) / b) - math.log(r))

    models = _MODELS if len(crossings) < 4 else sorted(_MODELS, key=miss)
    fit = _fit(crossings[-3:], models[0][0], hi)
    return None if fit is None else fit[0]


def _search(classify, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink (lo, hi], lo crossing and hi not, to width tol; classify(mu) -> (crossed, r_star).

    A probe sits FIT_BACKOFF of _predict's distance below its mu_c and at least tol above lo,
    or bisects without a prediction and after FIT_FAILS probes in a row failed to halve."""
    crossed, r = classify(lo)
    if not crossed:
        raise BracketInvalid(f"shot at lo={lo} did not cross the floor")
    if classify(hi)[0]:
        raise BracketInvalid(f"shot at hi={hi} crossed the floor")
    crossings, fails = [(lo, r)], 0
    while hi - lo > tol:
        width = hi - lo
        delta = _predict(crossings, hi) if fails < FIT_FAILS and len(crossings) > 2 else None
        probe = None if delta is None else lo + max(tol, (1.0 - FIT_BACKOFF) * delta)
        guessed = probe is not None and lo < probe < hi
        mu = probe if guessed else 0.5 * (lo + hi)
        if not lo < mu < hi:
            break
        crossed, r = classify(mu)
        if crossed:
            lo, crossings = mu, crossings[-3:] + [(mu, r)]
        else:
            hi = mu
        fails = fails + 1 if guessed and hi - lo > 0.5 * width else 0
    return lo, hi


def find_mu_c(
    p: ProfileParams,
    bisect_tol: float = 1e-12,
    r_max: float = 200.0,
) -> tuple[float, ProfileSolution]:
    """Search for the critical curvature and return the profile at mu_c.

    The bracket starts just below the mu_3 minimum (crossing shots) and at
    the mu_2 minimum (non-crossing shots); both classifications are
    verified up front and kept by _search, so the returned value is the
    upper endpoint: crossing occurs within bisect_tol below it.  Shots use
    integrate_shot's RTOL, FLAT_TOL and DR_SAMPLE.

    Every search shot is a classification shot (integrate_shot with
    keep_samples=False) on r_max; the final shot at mu_c runs on 2*r_max
    and keeps its samples.  integrate_shot widens each one that is still
    unsettled at its radius, up to WIDEN times that radius, so an r_max
    for which WIDEN * 2 * r_max overflows is refused before any shot.  The
    final shot must again not cross the floor: a flat endpoint at r_max is
    no proof that the shot stays above it further out.

    Q_tau is _tail_limit's read of the final shot's end state, and the
    solution carries decay_check's fit of it.  Where the tail reads no limit,
    or decay_check finds it too short (TailTooShort), the shot ended before
    its tail could be read, and the ProfileError names bisect_tol.
    """
    if not 0.0 <= bisect_tol < math.inf:
        raise ValueError("bisect_tol must be nonnegative and finite")
    if not (0.0 < r_max and WIDEN * 2.0 * r_max < math.inf):
        raise ValueError(f"r_max must be positive with {WIDEN:g} * r_max finite for r_max and "
                         f"the final shot's 2 * r_max, got {r_max}")
    report = structure_report(p)

    def classify(mu: float) -> tuple[bool, float | None]:
        out = integrate_shot(replace(p, mu=mu), r_max=r_max, keep_samples=False)[0]
        return out.classification is ShotClass.CROSSED, out.r_star

    _, mu_c = _search(classify, report.mu3_min * (1.0 + 1e-3), report.mu2_min, bisect_tol)
    outcome, samples = integrate_shot(replace(p, mu=mu_c), r_max=2.0 * r_max, keep_samples=True)
    if outcome.classification is ShotClass.CROSSED:
        raise Indeterminate(
            f"critical shot crossed the floor at r={outcome.r_star}; increase r_max"
        )
    if float(samples.Q_r.max()) > 1e-12:
        raise ProfileError("critical shot is not monotone nonincreasing")

    r_end = samples.r[-1]
    q_tau = _tail_limit(p, float(r_end), (samples.Q[-1], samples.Q_r[-1], samples.Q_rr[-1]))
    if q_tau is None:
        raise ProfileError(f"the final shot's tail reads no limit at r = {r_end:.6g}; lower "
                           f"bisect_tol={bisect_tol:g} to carry it further down its tail")

    sol = ProfileSolution(params=replace(p, mu=mu_c), samples=samples, Q_tau=q_tau)
    return mu_c, replace(sol, decay=decay_check(sol))


def _decay_rate(p: ProfileParams, q_tau: float) -> float:
    """L = Q_tau^{-n} - n/(c Q_tau): the squared linearized tail rate, positive below Q1."""
    return q_tau ** (-p.n) - p.n / (p.c * q_tau)


def _tail_rate(p: ProfileParams, q: float) -> float:
    """L(q) where a tail can settle at q exponentially, q < Q1 and L(q) > 0, else nan; in
    floats L rounds to 0 a few ulps below Q1, and to +2.2e-16 at Q1 for some (n, c)."""
    L = _decay_rate(p, q)
    return L if q < _q1(p) and L > 0.0 else math.nan


def _tail_limit(p: ProfileParams, r: float, y) -> float | None:
    """Q_tau off a tail's state y = (Q, Q_r, Q_rr) at r, or None; the one rule for a tail.

    Near Q_tau the ODE linearises to Delta_r q = L(Q_tau) q, with q = Q - Q_tau,
    Delta_r q = q'' + (d-1) q'/r and L = _decay_rate (Hairer, Norsett & Wanner,
    Solving ODEs I).  On the exponential side (_tail_rate) Q_tau is the fixed point
    of q -> Q - Delta_r Q / L(q), iterated from Q until a step is within 4 ulps; None
    where an iterate leaves that side or falls to Q_star, or TAIL_ITERS do not settle.
    Off it, Delta_r q = L'(Q1) q^2/2 has q = A/r^2, A = 4(d-4) c Q1^2/(n(n-1)) > 0 for
    d > 4 alone: there the tail is algebraic with the limit Q1; elsewhere, None.
    """
    Q, Qr, Qrr = map(float, y)
    if not _tail_rate(p, Q) > 0.0:
        return _q1(p) if p.d > 4.0 else None
    lap, qs, q, last = Qrr + (p.d - 1.0) * Qr / r, q_star(p.n), Q, math.nan
    for _ in range(TAIL_ITERS):
        L = _tail_rate(p, q) if q > qs else math.nan
        if not L > 0.0:
            return None
        if abs(q - last) <= 4.0 * math.ulp(q):
            return q
        q, last = Q - lap / L, q
    return None


def decay_check(sol: ProfileSolution) -> DecayFit | None:
    """The exponential tail envelope M exp(-k r) when the decay criterion holds.

    Returns nothing unless Q_tau is on the exponential side (_tail_rate), as for
    the algebraic tail Q1 of d > 4: a valid outcome, not an error.  The rate is
    that of the linearised tail, k = sqrt(L(Q_tau)); only M is fitted, on samples
    whose distance to Q_tau lies inside (1e-6, 1e-2).  The wider window (1e-10,
    1e-2) must hold at least 20 samples or the tail is deemed too short.
    """
    L = _tail_rate(sol.params, sol.Q_tau)
    if not L > 0.0:
        return None

    delta = sol.samples.Q - sol.Q_tau
    window = (delta > 1e-10) & (delta < 1e-2)
    if int(window.sum()) < 20:
        raise TailTooShort(
            f"only {int(window.sum())} samples within (1e-10, 1e-2) of Q_tau, and the last, "
            f"at r = {sol.samples.r[-1]:.6g}, has Q - Q_tau = {delta[-1]:.3g}; a smaller "
            "bisect_tol carries the final shot further down its tail"
        )
    fit = (delta > 1e-6) & (delta < 1e-2)
    if int(fit.sum()) < 2:
        raise TailTooShort("fit window holds fewer than 2 samples")
    k, r_fit = math.sqrt(L), sol.samples.r[fit]
    return DecayFit(M=float(np.exp(np.mean(np.log(delta[fit]) + k * r_fit))), k=k)


# -- rescaling and embedding ------------------------------------------------

@dataclass(frozen=True)
class Rescaling:
    """Scale factors of the symmetry Q -> q0*Q, r -> q0^{n/2} r."""

    c_bar: float  # the wave speed q0^(n-1) c
    r_scale: float
    mu_bar: float


@dataclass(frozen=True)
class RescaledProfile:
    scaling: Rescaling
    r: np.ndarray
    Q: np.ndarray


def rescale(sol: ProfileSolution, q0_bar: float) -> RescaledProfile:
    if not q0_bar > 0:
        raise ValueError("scale factor must be positive")
    p = sol.params
    scaling = Rescaling(
        c_bar=q0_bar ** (p.n - 1.0) * p.c,
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
    if not 0.0 < sol.Q_tau < math.inf:  # a single shot's archive holds nan
        raise ValueError(f"profile has no finite Q_tau to normalize by, got {sol.Q_tau!r}")
    if float(grid.d) != float(p.d):
        raise ValueError(
            f"profile dimension {p.d} does not match grid dimension {grid.d}"
        )
    if center is None:
        center = tuple(L / 2.0 for L in grid.lengths)
    if len(center) != grid.d:
        raise ValueError("center must have one coordinate per axis")

    q0 = 1.0 / sol.Q_tau
    r_scale = rescale(sol, q0).scaling.r_scale
    r_last = float(sol.samples.r[-1])
    R_bar = r_scale * r_last
    r_half = min(grid.lengths) / 2.0

    if r_half <= R_bar:
        discrepancy = abs(q0 * float(_hermite(sol.samples, r_half / r_scale)) - 1.0)
    elif sol.decay is not None:
        discrepancy = q0 * sol.decay.M * math.exp(-sol.decay.k * r_half / r_scale)
    else:
        # no envelope fit: bound the wrapped tail by its value at the
        # end of the samples (the tail decreases toward Q_tau)
        discrepancy = q0 * (float(sol.samples.Q[-1]) - sol.Q_tau)
    if not discrepancy < 1e-8:  # nan too
        raise DomainTooSmall(
            f"tail misses 1 by {discrepancy:.3e} at half-domain distance"
        )

    rho2 = np.zeros(grid.shape)
    with np.errstate(over="ignore"):  # a square past the float range lies outside: 1 there
        for x, c0, L in zip(grid.coordinates(), center, grid.lengths):
            delta = np.abs(x - c0)
            delta = np.minimum(delta, L - delta)
            rho2 = rho2 + delta**2
    rho = np.sqrt(rho2)

    r_prof = rho / r_scale
    inside = r_prof <= r_last
    vals = np.ones(grid.shape)
    vals[inside] = q0 * _hermite(sol.samples, r_prof[inside])
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


# -- archive format ---------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    """CSV text: the header, then one line per row; non-string cells via _fmt."""
    lines = [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in [header, *lines])


def write_profile_csv(path, sol: ProfileSolution) -> None:
    """Profile archive: a metadata line of d, n, c, mu_c, Q_tau, then r,Q,Q_r,Q_rr rows."""
    p, s = sol.params, sol.samples
    meta = (f"# d={_fmt(p.d)}, n={_fmt(p.n)}, c={_fmt(p.c)}, mu_c={_fmt(_require_mu(p))}, "
            f"Q_tau={_fmt(sol.Q_tau)}")
    with open(path, "w", newline="") as fh:
        fh.write(_csv(meta, [("r,Q,Q_r,Q_rr",), *zip(s.r, s.Q, s.Q_r, s.Q_rr)]))


def read_profile_csv(path) -> ProfileSolution:
    """Read a profile archive; bad content raises ValueError naming ``path``.  The
    decay fit is decay_check's, or None where it gives none, finds the tail too short
    or M is not positive and finite; older archives' Q_star, k and M are ignored."""
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
        missing = [k for k in ("d", "n", "c", "mu_c", "Q_tau") if k not in meta]
        if missing:
            raise ValueError(f"profile metadata lacks {', '.join(missing)}")
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
                if not all(map(math.isfinite, rows[i - 1])):
                    raise ValueError("a value is not finite")
            except ValueError as exc:
                raise ValueError(f"sample row {i}: {exc}") from None
        data = np.array(rows, dtype=np.float64)
        rising = np.diff(data[:, 0]) > 0.0
        if not rising.all():
            raise ValueError(f"sample row {int(np.argmin(rising)) + 2}: r does not increase")
        params = ProfileParams(d=meta["d"], n=meta["n"], c=meta["c"], mu=meta["mu_c"])
        q_tau = meta["Q_tau"]  # nan is allowed: a single shot has no limit
        # h3 rises through 0 only at Q_star on (0, 1); a tiny Q_tau overflows it
        if not (math.isnan(q_tau) or 0.0 < q_tau < 1.0 and _h3(q_tau, params.n, 1.0) > 0.0):
            raise ValueError(f"profile metadata Q_tau={q_tau!r} must lie in (Q_star, 1)")
        samples = ShotSamples(r=data[:, 0], Q=data[:, 1], Q_r=data[:, 2], Q_rr=data[:, 3])
    except (ValueError, ArithmeticError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    sol = ProfileSolution(params=params, samples=samples, Q_tau=q_tau)
    try:
        with np.errstate(over="ignore"):  # radii past the float range give M = inf
            fit = decay_check(sol)  # None for a nan Q_tau too
    except TailTooShort:
        return sol
    return replace(sol, decay=fit) if fit is not None and 0.0 < fit.M < math.inf else sol
