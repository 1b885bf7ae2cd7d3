"""Variable-coefficient elliptic solves for L_a u := u - div(a grad u).

The operator is symmetric positive definite on the grid whenever a > 0, so
it is inverted matrix-free by preconditioned conjugate gradients.  CG keeps
its iterate, residual and search direction as rfft coefficients: applying
L_a costs 2d real transforms per iteration, the constant-coefficient
preconditioner (I - abar*Lap)^{-1} with abar = mean(a) is the diagonal
multiply 1/(1 + abar|k|^2), exact for constant a, and transforms and inner
products are ``TorusGrid``'s; a warm start is coefficients too.  When the
recursive residual meets the tolerance, the iterate goes to samples and
back in 2 transforms.  If the residual-gap bound (Greenbaum 1997; van der
Vorst & Ye 2000) of those samples, the recursive residual plus
||L_a|| (||round trip|| + GAP eps (i + 1) ||x||), meets the tolerance too,
they are returned; otherwise their true residual is re-checked by Parseval
in 2d more transforms, and if it fails, CG restarts from it with a fresh
search direction, at most MAX_RESTARTS times: a tolerance below the
rounding floor then gives up.  A cold solve of i iterations makes 2d i + 2
transforms when the bound passes and 2d(i + 1) + 2 when it is re-checked,
a warm one 2d more.  At 1e-10 the bound passes for 93.9% of the solves of
the criterion-7 run and 99.9% of the criterion-8 2d transit; at 1e-12 in
1d N=256 it never does.

The iteration is bound by per-call overhead at small sizes, so it makes no
temporary it can write in place: each transform's output is scaled in
place, the first axis's term of div(a grad u) is the sum, and the residual,
L_a p and the search direction are updated in place.  The preconditioner
(once a solve) and the inner-product weights (once a grid) are complex, so
no product casts a real operand.  The operations and their order are those
of the plain formulas, so every output is bit for bit the same; inputs are
never written.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid

__all__ = [
    "EllipticProblem",
    "CGInfo",
    "NonPositiveCoefficient",
    "NotConverged",
    "NearDegenerateWarning",
    "apply_L",
    "solve_L_info",
]

LOW_CONTRAST_RATIO = 1e-3
MAX_RESTARTS = 16  # converging solves at 1e-12 have needed up to 16 (README)
GAP = 4.0  # measured residual gaps stayed below 0.19 eps (i + 1) ||L_a|| ||x||
_EPS = float(np.finfo(float).eps)


class NonPositiveCoefficient(ValueError):
    """Coefficient field fails min(a) > 0, so L_a is not elliptic."""


class NotConverged(RuntimeError):
    """Conjugate gradients hit the iteration cap or broke down before the
    tolerance; ``residual`` is the relative residual of the last iterate."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )


class NearDegenerateWarning(RuntimeWarning):
    """min(a)/mean(a) is tiny; the mean preconditioner may be ineffective."""


@dataclass(frozen=True)
class CGInfo:
    """``residual`` is the relative true residual of the returned samples, or
    an upper bound on it when the rounding bound spared the re-check."""

    iterations: int
    residual: float


@dataclass(frozen=True)
class EllipticProblem:
    """Data for L_a u = g with a relative residual tolerance."""

    a: Field
    g: Field
    tol: float = 1e-10
    max_iter: int | None = None

    def __post_init__(self) -> None:
        if self.a.grid != self.g.grid:
            raise ValueError("coefficient and right-hand side live on different grids")
        if float(self.a.values.min()) <= 0.0:
            raise NonPositiveCoefficient("coefficient must be strictly positive")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("iteration cap must be at least 1")


def _div_a_grad(grid: TorusGrid, a: np.ndarray, uh: np.ndarray) -> np.ndarray:
    """rfft coefficients of div(a grad u), given those of u: 2d transforms.
    Each transform's output is scaled in place, and the first axis's term is
    the sum: the operations of a sum from zeros, told apart from it only by
    the sign of an exact zero."""
    acc = None
    for ik in grid.rfft_deriv_multipliers:
        flux = grid.irfft(ik * uh)
        flux *= a
        term = grid.rfft(flux)
        term *= ik
        acc = term if acc is None else np.add(acc, term, out=acc)
    return acc


def _solve_raw(
    grid: TorusGrid,
    a: np.ndarray,
    g_hat: np.ndarray,
    tol: float,
    max_iter: int | None,
    x0h: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, CGInfo]:
    """Solve L_a u = g from ``g_hat = grid.rfft(g)`` and the optional guess
    ``x0h``, also rfft coefficients.  Returns the samples ``x``, their
    ``grid.rfft(x)`` and the CG record; the residual reported is that of ``x``,
    or a bound on it."""

    def norm(uh: np.ndarray) -> float:  # the sample 2-norm, by Parseval
        return float(np.sqrt(grid.inner(uh, uh) / grid.size))

    norm_g = norm(g_hat)
    if norm_g == 0.0:
        return np.zeros(grid.shape), np.zeros_like(g_hat), CGInfo(iterations=0, residual=0.0)

    def residual(uh: np.ndarray) -> np.ndarray:
        rh = _div_a_grad(grid, a, uh)
        np.subtract(uh, rh, out=rh)
        return np.subtract(g_hat, rh, out=rh)

    # complex, as its product with a complex array casts it: exact, once a solve
    precond = (1.0 / (1.0 + float(a.sum()) / a.size * grid.rfft_k_squared)).astype(complex)
    # bounds the operator norm of L_a in the Parseval norm
    norm_a = 1.0 + float(a.max()) * grid._k_squared_max
    xh = np.zeros_like(g_hat) if x0h is None else x0h.copy()
    rh = g_hat.copy() if x0h is None else residual(xh)

    target = tol * norm_g
    if max_iter is None:
        max_iter = 10 * max(grid.n_points)
    res_norm, iterations, p, restarts = norm(rh), 0, None, 0
    while True:
        if res_norm <= target:
            # the recursive residual drifts from the true one by at most
            # GAP eps (iterations + 1) ||L_a|| ||x||, and the round trip to
            # samples drops the non-Hermitian part; re-check only when that
            # bound fails the tolerance (a NaN bound fails it too)
            x = grid.irfft(xh)
            xt = grid.rfft(x)
            gap = GAP * _EPS * (iterations + 1) * norm(xt)
            bound = res_norm + norm_a * (norm(xt - xh) + gap)
            if bound <= target:
                return x, xt, CGInfo(iterations=iterations, residual=bound / norm_g)
            xh = xt
            rh = residual(xh)
            res_norm = norm(rh)
            if res_norm <= target:
                return x, xh, CGInfo(iterations=iterations, residual=res_norm / norm_g)
            # restart from the true residual: the old direction is not
            # conjugate to it, and keeping it lets the residual diverge
            restarts, p = restarts + 1, None
            if restarts > MAX_RESTARTS:
                raise NotConverged(iterations, res_norm / norm_g)
        if iterations == max_iter:
            raise NotConverged(iterations, res_norm / norm_g)
        iterations += 1
        z = precond * rh
        rz_next = grid.inner(rh, z)
        if p is None:
            p = z
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        Ap = _div_a_grad(grid, a, p)
        np.subtract(p, Ap, out=Ap)
        pAp = grid.inner(p, Ap)
        if not pAp > 0.0:  # breakdown: the recursive residual underflowed
            xt = grid.rfft(grid.irfft(xh))
            raise NotConverged(iterations, norm(residual(xt)) / norm_g)
        alpha = rz / pAp
        xh += alpha * p
        rh -= alpha * Ap
        res_norm = norm(rh)


def apply_L(a: Field, u: Field) -> Field:
    """u - div(a grad u) with spectral derivatives."""
    if a.grid != u.grid:
        raise ValueError("coefficient and argument live on different grids")
    grid = u.grid
    return Field(grid, u.values - grid.irfft(_div_a_grad(grid, a.values, grid.rfft(u.values))))


def solve_L_info(p: EllipticProblem, x0: Field | None = None) -> tuple[Field, CGInfo]:
    """Solve L_a u = g; the true residual of the return satisfies the tolerance."""
    a = p.a.values
    ratio = float(a.min()) / float(a.mean())
    if ratio < LOW_CONTRAST_RATIO:
        warnings.warn(
            f"min(a)/mean(a) = {ratio:.3e} is below {LOW_CONTRAST_RATIO:.0e}; "
            "the mean-coefficient preconditioner may be ineffective",
            NearDegenerateWarning,
            stacklevel=2,
        )
    grid = p.a.grid
    x0h = None if x0 is None else grid.rfft(x0.values)
    u, _, info = _solve_raw(grid, a, grid.rfft(p.g.values), p.tol, p.max_iter, x0h)
    return Field(grid, u), info

