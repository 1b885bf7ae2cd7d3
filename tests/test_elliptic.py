"""Screened elliptic operator and preconditioned CG solver tests."""

from __future__ import annotations

import numpy as np
import pytest

from magma_lab import (
    EllipticProblem,
    Field,
    NearDegenerateWarning,
    NonPositiveCoefficient,
    NotConverged,
    TorusGrid,
    apply_L,
    solve_L,
    solve_L_info,
)


def test_problem_validation():
    g = TorusGrid((16,), (2.0 * np.pi,))
    rhs = Field.constant(g, 1.0)
    with pytest.raises(NonPositiveCoefficient):
        EllipticProblem(a=Field.constant(g, 0.0), g=rhs)
    with pytest.raises(NonPositiveCoefficient):
        EllipticProblem(a=Field.from_function(g, lambda x: np.cos(x)), g=rhs)
    with pytest.raises(ValueError):
        EllipticProblem(a=Field.constant(g, 1.0), g=rhs, tol=0.0)
    with pytest.raises(ValueError):
        EllipticProblem(a=Field.constant(g, 1.0), g=rhs, max_iter=0)
    other = TorusGrid((32,), (2.0 * np.pi,))
    with pytest.raises(ValueError):
        EllipticProblem(a=Field.constant(other, 1.0), g=rhs)


def test_apply_constant_coefficient_exact():
    # L_a[cos(kx)] = (1 + a k^2) cos(kx) for constant a
    g = TorusGrid((64,), (2.0 * np.pi,))
    a = Field.constant(g, 3.0)
    u = Field.from_function(g, lambda x: np.cos(2 * x))
    got = apply_L(a, u)
    np.testing.assert_allclose(got.values, 13.0 * u.values, atol=1e-11)


def test_apply_variable_coefficient_oracle():
    # a = 2 + cos x, u = sin x: u - (a u')' = 3 sin x + sin 2x
    g = TorusGrid((128,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.0 + np.cos(x))
    u = Field.from_function(g, np.sin)
    want = Field.from_function(g, lambda x: 3.0 * np.sin(x) + np.sin(2.0 * x))
    got = apply_L(a, u)
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)
    with pytest.raises(ValueError):
        apply_L(a, Field.constant(TorusGrid((64,), (2.0 * np.pi,)), 1.0))


def test_solve_inverts_apply():
    g = TorusGrid((64,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.0 + np.cos(x))
    u = Field.from_function(g, np.sin)
    rhs = apply_L(a, u)
    got, info = solve_L_info(EllipticProblem(a=a, g=rhs, tol=1e-13))
    np.testing.assert_allclose(got.values, u.values, atol=1e-11)
    assert info.iterations > 0
    assert info.residual <= 1e-13


def test_solve_zero_rhs_is_zero():
    g = TorusGrid((32,), (2.0 * np.pi,))
    p = EllipticProblem(a=Field.constant(g, 1.0), g=Field.constant(g, 0.0))
    u, info = solve_L_info(p)
    assert np.all(u.values == 0.0)
    assert info.iterations == 0


def test_true_residual_contract():
    g = TorusGrid((32, 32), (2.0 * np.pi, 2.0 * np.pi))
    rng = np.random.default_rng(5)
    a = Field(g, 1.5 + 0.9 * np.sin(np.add(*g.meshgrid())))
    rhs = Field(g, rng.normal(size=g.shape))
    tol = 1e-11
    u = solve_L(EllipticProblem(a=a, g=rhs, tol=tol))
    res = rhs - apply_L(a, u)
    assert np.linalg.norm(res.values) <= tol * np.linalg.norm(rhs.values)


def test_self_adjointness_and_coercivity():
    g = TorusGrid((16, 16), (2.0 * np.pi, 4.0))
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = Field(g, np.exp(0.5 * rng.normal(size=g.shape).clip(-2, 2)))
        u = Field(g, rng.normal(size=g.shape))
        v = Field(g, rng.normal(size=g.shape))
        lhs = np.sum(apply_L(a, u).values * v.values)
        rhs = np.sum(u.values * apply_L(a, v).values)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * scale
        quad = np.sum(apply_L(a, u).values * u.values)
        assert quad >= (1.0 - 1e-10) * np.sum(u.values**2)


def test_warm_start_cheaper_than_cold():
    g = TorusGrid((64,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.0 + 0.8 * np.sin(x))
    rhs = Field.from_function(g, lambda x: np.cos(3 * x) + 0.2 * np.sin(x))
    p = EllipticProblem(a=a, g=rhs, tol=1e-12)
    u_cold, info_cold = solve_L_info(p)
    _, info_warm = solve_L_info(p, x0=u_cold)
    assert info_warm.iterations <= info_cold.iterations
    assert info_warm.iterations <= 1


def test_not_converged_carries_diagnostics():
    cases = [
        # (points, coefficient, right-hand side, tol, cap)
        (64, lambda x: 2.0 + 0.8 * np.sin(x), lambda x: np.cos(3 * x), 1e-14, 1),
        # CG breaks down once the recursive residual underflows (p.Ap = 0)
        (256, lambda x: 1.3 + np.cos(x), np.sin, 1e-300, None),
    ]
    for n, coef, rhs_fn, tol, cap in cases:
        g = TorusGrid((n,), (2.0 * np.pi,))
        a = Field.from_function(g, coef)
        rhs = Field.from_function(g, rhs_fn)
        with pytest.raises(NotConverged) as err:
            solve_L(EllipticProblem(a=a, g=rhs, tol=tol, max_iter=cap))
        assert 1 <= err.value.iterations <= (cap or 10 * n)
        # the true residual of the last iterate, not the recursive one
        assert err.value.residual > 1e-14


def test_near_degenerate_warning():
    g = TorusGrid((64,), (2.0 * np.pi,))
    base = 1.0 + np.cos(g.axis_coordinates(0))
    a = Field(g, base + 1e-5)
    rhs = Field.from_function(g, np.sin)
    with pytest.warns(NearDegenerateWarning):
        solve_L(EllipticProblem(a=a, g=rhs, tol=1e-8, max_iter=20000))


def test_no_warning_for_moderate_contrast():
    g = TorusGrid((64,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.0 + np.cos(x))
    rhs = Field.from_function(g, np.sin)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", NearDegenerateWarning)
        solve_L(EllipticProblem(a=a, g=rhs, tol=1e-10))


def test_preconditioner_keeps_iterations_modest():
    g = TorusGrid((128,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.5 + 1.5 * np.sin(x))  # contrast 4:1
    rhs = Field.from_function(g, lambda x: np.sin(5 * x) + np.cos(x))
    _, info = solve_L_info(EllipticProblem(a=a, g=rhs, tol=1e-12))
    assert info.iterations <= 40
