"""Variable-coefficient elliptic solves for L_a u := u - div(a grad u).

The operator is symmetric positive definite on the grid whenever a > 0, so
it is inverted matrix-free by preconditioned conjugate gradients.  The
preconditioner is the constant-coefficient inverse (I - abar*Lap)^{-1} with
abar = mean(a), applied by Fourier division; it is exact for constant a.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid

__all__ = [
    "EllipticProblem",
    "CGInfo",
    "NotConverged",
    "NonPositiveCoefficient",
    "NearDegenerateWarning",
    "apply_L",
    "solve_L",
    "solve_L_info",
]

LOW_CONTRAST_RATIO = 1e-3


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
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("iteration cap must be at least 1")


def _apply_raw(grid: TorusGrid, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """L_a u on raw sample arrays via real transforms."""
    axes = tuple(range(grid.d))
    uh = np.fft.rfftn(u)
    acc = np.zeros(grid.rfft_shape, dtype=np.complex128)
    for ik in grid.rfft_deriv_multipliers:
        du = np.fft.irfftn(ik * uh, s=grid.shape, axes=axes)
        acc += ik * np.fft.rfftn(a * du)
    return u - np.fft.irfftn(acc, s=grid.shape, axes=axes)


def _solve_raw(
    grid: TorusGrid,
    a: np.ndarray,
    g: np.ndarray,
    tol: float,
    max_iter: int | None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, CGInfo]:
    norm_g = float(np.linalg.norm(g))
    if norm_g == 0.0:
        return np.zeros(grid.shape), CGInfo(iterations=0, residual=0.0)

    abar = float(a.mean())
    precond_hat = 1.0 / (1.0 + abar * grid.rfft_k_squared)

    def precondition(res: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(
            precond_hat * np.fft.rfftn(res), s=grid.shape, axes=tuple(range(grid.d))
        )

    if x0 is None:
        x = np.zeros(grid.shape)
        r = g.copy()
    else:
        x = x0.copy()
        r = g - _apply_raw(grid, a, x)

    target = tol * norm_g
    res_norm = float(np.linalg.norm(r))
    if res_norm <= target:  # r is already the true residual of x
        return x, CGInfo(0, res_norm / norm_g)

    iterations = 0
    if max_iter is None:
        max_iter = 10 * max(grid.n_points)
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    while iterations < max_iter:
        iterations += 1
        Ap = _apply_raw(grid, a, p)
        pAp = float(np.vdot(p, Ap).real)
        if not pAp > 0.0:  # breakdown: the recursive residual underflowed
            true_res = float(np.linalg.norm(g - _apply_raw(grid, a, x)))
            raise NotConverged(iterations, true_res / norm_g)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res_norm = float(np.linalg.norm(r))
        if res_norm <= target:
            # recursive residual can drift; re-check against the operator
            r = g - _apply_raw(grid, a, x)
            res_norm = float(np.linalg.norm(r))
            if res_norm <= target:
                return x, CGInfo(iterations=iterations, residual=res_norm / norm_g)
        z = precondition(r)
        rz_next = float(np.vdot(r, z).real)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise NotConverged(iterations, res_norm / norm_g)


def apply_L(a: Field, u: Field) -> Field:
    """u - div(a grad u) with spectral derivatives."""
    if a.grid != u.grid:
        raise ValueError("coefficient and argument live on different grids")
    return Field(u.grid, _apply_raw(u.grid, a.values, u.values))


def solve_L(p: EllipticProblem, x0: Field | None = None) -> Field:
    return solve_L_info(p, x0)[0]


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
    x0_vals = None if x0 is None else x0.values
    u, info = _solve_raw(p.a.grid, a, p.g.values, p.tol, p.max_iter, x0_vals)
    return Field(p.a.grid, u), info

