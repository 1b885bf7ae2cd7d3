"""Screened elliptic operator and preconditioned CG solver tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import SMALL_GRIDS, criterion7_phi0
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magma_lab import (
    EllipticProblem,
    EvolveConfig,
    Field,
    NearDegenerateWarning,
    NonPositiveCoefficient,
    NotConverged,
    TorusGrid,
    apply_L,
    elliptic,
    evolution,
    evolve,
    solve_L_info,
    spectral_derivative,
)
from magma_lab.elliptic import _div_a_grad, _hermitian_part, _solve_raw


def test_problem_validation():
    g = TorusGrid((16,), (2.0 * np.pi,))
    rhs = Field.constant(g, 1.0)
    with pytest.raises(NonPositiveCoefficient):
        EllipticProblem(a=Field.constant(g, 0.0), g=rhs)
    with pytest.raises(NonPositiveCoefficient):
        EllipticProblem(a=Field.from_function(g, lambda x: np.cos(x)), g=rhs)
    for tol in (0.0, -1e-10, np.inf, np.nan):  # tol=inf used to "converge" to u = 0
        with pytest.raises(ValueError, match="tolerance"):
            EllipticProblem(a=Field.constant(g, 1.0), g=rhs, tol=tol)
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
    u = solve_L_info(EllipticProblem(a=a, g=rhs, tol=tol))[0]
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


@settings(max_examples=100)
@given(SMALL_GRIDS, st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1))
def test_apply_L_is_symmetric_and_coercive_for_any_coefficient(grid, ripple, seed):
    # <u, L_a v> = <L_a u, v> and <u, L_a u> >= <u, u> for a rough a in [0.1, 10];
    # a small ripple on a constant leaves the bound nearly tight
    rng = np.random.default_rng(seed)
    a = Field(grid, rng.uniform(0.1, 10.0, size=grid.shape))
    u, v = (rng.normal() + ripple * rng.normal(size=grid.shape) for _ in range(2))
    Lu, Lv = (apply_L(a, Field(grid, w)).values for w in (u, v))
    scale = np.linalg.norm(u) * np.linalg.norm(Lv) + np.linalg.norm(Lu) * np.linalg.norm(v)
    assert abs(np.vdot(u, Lv) - np.vdot(Lu, v)) <= 1e-12 * scale
    assert np.vdot(u, Lu) >= (1.0 - 1e-12) * np.vdot(u, u)


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
            solve_L_info(EllipticProblem(a=a, g=rhs, tol=tol, max_iter=cap))
        assert 1 <= err.value.iterations <= (cap or 10 * n)
        # the true residual of the last iterate, not the recursive one
        assert err.value.residual > 1e-14


def test_near_degenerate_warning():
    g = TorusGrid((64,), (2.0 * np.pi,))
    base = 1.0 + np.cos(g.axis_coordinates(0))
    a = Field(g, base + 1e-5)
    rhs = Field.from_function(g, np.sin)
    with pytest.warns(NearDegenerateWarning):
        solve_L_info(EllipticProblem(a=a, g=rhs, tol=1e-8, max_iter=20000))


def test_no_warning_for_moderate_contrast():
    g = TorusGrid((64,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.0 + np.cos(x))
    rhs = Field.from_function(g, np.sin)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", NearDegenerateWarning)
        solve_L_info(EllipticProblem(a=a, g=rhs, tol=1e-10))


def test_preconditioner_keeps_iterations_modest():
    g = TorusGrid((128,), (2.0 * np.pi,))
    a = Field.from_function(g, lambda x: 2.5 + 1.5 * np.sin(x))  # contrast 4:1
    rhs = Field.from_function(g, lambda x: np.sin(5 * x) + np.cos(x))
    _, info = solve_L_info(EllipticProblem(a=a, g=rhs, tol=1e-12))
    assert info.iterations <= 40


def _graded_problem(grid: TorusGrid, tol: float) -> EllipticProblem:
    """a = (1 + 0.3 sum_i cos((i+1) x_i + 0.3 i))^2.5 and g = -d_d a, the
    shape of an evolution right-hand side."""
    coords = grid.coordinates()
    s = sum(np.cos((i + 1) * x + 0.3 * i) for i, x in enumerate(coords))
    a = Field(grid, np.broadcast_to((1.0 + 0.3 * s) ** 2.5, grid.shape))
    return EllipticProblem(a=a, g=-spectral_derivative(a, grid.d - 1), tol=tol)


@pytest.mark.parametrize(
    "shape, tol, iterations",
    [((256,), 1e-10, 25), ((128, 128), 1e-10, 66), ((128, 128), 1e-12, 79)],
)
def test_pinned_iteration_counts(shape, tol, iterations):
    # counts of the sample-space CG this solver replaced; the coefficient
    # recursion is the same one in exact arithmetic
    grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    p = _graded_problem(grid, tol)
    u, info = solve_L_info(p)
    assert abs(info.iterations - iterations) <= 1
    res = np.linalg.norm((p.g - apply_L(p.a, u)).values)
    assert res <= tol * np.linalg.norm(p.g.values)


def test_restart_after_failed_recheck_converges():
    # the recursive residual meets 1e-12 before the true one does; carrying
    # the old search direction past the re-check made the residual diverge
    # (2e110 after the 2,560-iteration cap)
    grid = TorusGrid((256,), (2.0 * np.pi,))
    p = _graded_problem(grid, 1e-12)
    u, info = solve_L_info(p)
    assert info.iterations <= 40
    res = np.linalg.norm((p.g - apply_L(p.a, u)).values)
    assert res <= 1e-12 * np.linalg.norm(p.g.values)


def _count_transforms(monkeypatch) -> list[int]:
    """Count every np.fft.rfftn and np.fft.irfftn call from now on."""
    calls = [0]
    for name in ("rfftn", "irfftn"):
        def counted(*args, _real=getattr(np.fft, name), **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("shape", [(256,), (64, 64)])
def test_solve_transform_budget(shape, monkeypatch):
    # 2d per CG iteration, 2d for a warm start's initial residual, 1 to
    # samples and 2d + 1 for the re-check; the guess and the answer cross no
    # extra transform.  Cold or from a 1e-4 guess, these solves take too many
    # iterations for the rounding bound to spare the re-check; from a 1e-9
    # guess in 2d it does, and a warm solve then makes 2d (i + 1) + 1
    grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    p = _graded_problem(grid, 1e-10)
    g_hat = np.fft.rfftn(p.g.values)
    x0h = np.fft.rfftn(solve_L_info(_graded_problem(grid, 1e-4))[0].values)
    cases = [(None, 0, 1), (x0h, 1, 1)]  # (guess, warm, re-checked)
    if grid.d == 2:
        cases.append((np.fft.rfftn(solve_L_info(_graded_problem(grid, 1e-9))[0].values), 1, 0))
    calls, d = _count_transforms(monkeypatch), grid.d
    for guess, warm, rechecked in cases:
        calls[0] = 0
        *_, info = _solve_raw(grid, p.a.values, g_hat, p.tol, None, guess)
        assert info.iterations > 0
        assert calls[0] == 2 * d * (info.iterations + warm + rechecked) + 1 + rechecked


def _check_solve(grid, a, g_hat, tol, out) -> bool:
    """Assert that the returned samples meet ``tol`` in a residual formed from
    samples and that ``CGInfo.residual`` bounds it; True if the re-check was
    skipped.  A re-checked solve reports the Parseval residual of rfft(x),
    which equals the sample one up to rounding."""
    x, _, info = out
    g = grid.irfft(g_hat)
    res = np.linalg.norm(g - apply_L(Field(grid, a), Field(grid, x)).values) / np.linalg.norm(g)
    assert res <= tol

    def norm(uh):
        return float(np.sqrt(grid.inner(uh, uh) / grid.size))

    xh = grid.rfft(x)
    rechecked = norm(g_hat - (xh - _div_a_grad(grid, a, xh))) / norm(g_hat)
    if info.residual == rechecked:
        assert info.residual == pytest.approx(res, rel=1e-3)
        return False
    assert info.residual >= res
    return True


def _graded_phi0() -> Field:
    """The base of _graded_problem's coefficient on a 32^2 torus: at n = 2.5
    the first solve's coefficient is that problem's."""
    g = TorusGrid((32, 32), (2.0 * np.pi, 2.0 * np.pi))
    s = sum(np.cos((i + 1) * x + 0.3 * i) for i, x in enumerate(g.coordinates()))
    return Field(g, np.broadcast_to(1.0 + 0.3 * s, g.shape).copy())


_SHORT_RUNS = [  # (initial field, n, dt, steps), solved to 1e-10
    (criterion7_phi0(1), 2.0, 1e-3, 40),
    (_graded_phi0(), 2.5, 0.05, 10),
]


def test_every_solve_meets_its_tolerance(monkeypatch):
    real, skipped = evolution._solve_raw, []

    def checked(grid, a, g_hat, tol, max_iter, x0h=None):
        out = real(grid, a, g_hat, tol, max_iter, x0h)
        skipped.append(_check_solve(grid, a, g_hat, tol, out))
        return out

    monkeypatch.setattr(evolution, "_solve_raw", checked)
    for phi0, n, dt, steps in _SHORT_RUNS:
        skipped.clear()
        cfg = EvolveConfig(n_exponent=n, dt=dt, t_end=steps * dt, elliptic_tol=1e-10)
        evolve(phi0, cfg)
        assert len(skipped) == 4 * steps
        assert any(skipped)  # the bound is exercised, not only the re-check
    for shape in ((256,), (128, 128)):
        grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
        p = _graded_problem(grid, 1e-12)
        g_hat = np.fft.rfftn(p.g.values)
        _check_solve(grid, p.a.values, g_hat, p.tol, _solve_raw(grid, p.a.values, g_hat, p.tol, None))
        with pytest.raises(NotConverged) as err:
            _solve_raw(grid, p.a.values, g_hat, 1e-13, None)
        assert err.value.residual > 1e-13


def test_skipping_the_recheck_changes_only_rounding(monkeypatch):
    # GAP = inf refuses every bound, so every solve is re-checked and returns
    # rfft(x) plus the Richardson step; a skipped solve returns CG's own
    # coefficients plus the step, which differ from those in the last bits,
    # and so do the later warm starts.  Every solve of both runs meets its
    # tolerance
    real = evolution._solve_raw

    def checked(grid, a, g_hat, tol, max_iter, x0h=None):
        out = real(grid, a, g_hat, tol, max_iter, x0h)
        _check_solve(grid, a, g_hat, tol, out)
        return out

    monkeypatch.setattr(evolution, "_solve_raw", checked)
    for phi0, n, dt, steps in _SHORT_RUNS:
        cfg = EvolveConfig(n_exponent=n, dt=dt, t_end=steps * dt, elliptic_tol=1e-10)
        skipping = evolve(phi0, cfg)
        with monkeypatch.context() as m:
            m.setattr(elliptic, "GAP", math.inf)
            rechecking = evolve(phi0, cfg)
        np.testing.assert_allclose(
            skipping.snapshots[-1][1].values, rechecking.snapshots[-1][1].values, rtol=1e-12
        )
        np.testing.assert_allclose(skipping.report.monitor, rechecking.report.monitor, rtol=1e-12)


@pytest.mark.parametrize(
    "run, transforms, cg_iterations", [(0, 902, 101), (1, 4618, 1089)], ids=["criterion7", "graded"]
)
def test_short_run_counts(run, transforms, cg_iterations, monkeypatch):
    # every transform and CG iteration of the two runs, pinned.  Without the
    # Richardson step on the returned coefficients the warm starts are worse:
    # 1126 and 4626 transforms, 204 and 1091 iterations; with a round trip
    # through samples for every skipped solve, 1267 and 4663 transforms
    phi0, n, dt, steps = _SHORT_RUNS[run]
    calls = _count_transforms(monkeypatch)
    cfg = EvolveConfig(n_exponent=n, dt=dt, t_end=steps * dt, elliptic_tol=1e-10)
    assert int(evolve(phi0, cfg).report.cg_iterations.sum()) == cg_iterations
    assert calls[0] == transforms


def test_criterion7_tolerance_rechecks_every_solve(monkeypatch):
    # at 1e-12 in 1d N=256 the rounding bound passes no solve, so each one is
    # re-checked and reports the true residual of rfft(x), as before the
    # bound existed
    real, skipped = evolution._solve_raw, []

    def recorded(*args):
        out = real(*args)
        skipped.append(_check_solve(*args[:4], out))
        return out

    monkeypatch.setattr(evolution, "_solve_raw", recorded)
    evolve(criterion7_phi0(1), EvolveConfig(n_exponent=2.0, dt=1e-3, t_end=0.04, elliptic_tol=1e-12))
    assert skipped == [False] * 160


@pytest.mark.parametrize("shape", [(256,), (64, 64)])
def test_recheck_returns_checked_samples(shape):
    # the re-check runs in coefficients; the samples returned must still meet
    # the tolerance in a residual formed independently from samples
    grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    p = _graded_problem(grid, 1e-12)
    x0h = np.fft.rfftn(solve_L_info(_graded_problem(grid, 1e-4))[0].values)
    kept = x0h.copy()
    g_hat = np.fft.rfftn(p.g.values)
    for guess in (None, x0h):
        out = _solve_raw(grid, p.a.values, g_hat, p.tol, None, guess)
        assert not _check_solve(grid, p.a.values, g_hat, p.tol, out)  # re-checked
        assert out[2].residual <= p.tol
    np.testing.assert_array_equal(x0h, kept)  # the caller's guess is left alone


@pytest.mark.parametrize("shape, guess_tol", [((256,), 1e-11), ((64, 64), 1e-9)])
@pytest.mark.parametrize("gap", [elliptic.GAP, math.inf], ids=["skipped", "rechecked"])
def test_returned_coefficients_gain_a_richardson_step(shape, guess_tol, gap, monkeypatch):
    # the coefficients, read only as warm starts, are Hermitian, and their
    # error against a 1e-12 solution in the L_a energy norm is that of rfft(x)
    # times at most Richardson's factor (max a - min a)/(max a + min a); x is
    # still irfft of CG's iterate, the first array the solve projects.  From
    # these guesses the bound passes, and GAP = inf forces the re-check
    grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    p = _graded_problem(grid, 1e-10)
    a, g_hat = p.a.values, np.fft.rfftn(p.g.values)
    ref, guess = (np.fft.rfftn(solve_L_info(_graded_problem(grid, tol))[0].values)
                  for tol in (1e-12, guess_tol))
    projected, real = [], elliptic._hermitian_part
    monkeypatch.setattr(
        elliptic, "_hermitian_part", lambda g, xh: projected.append(xh.copy()) or real(g, xh)
    )
    monkeypatch.setattr(elliptic, "GAP", gap)
    out = _solve_raw(grid, a, g_hat, p.tol, None, guess)
    x, x_hat, _ = out
    assert _check_solve(grid, a, g_hat, p.tol, out) == (gap < math.inf)
    assert real(grid, x_hat)[1] == 0.0
    np.testing.assert_array_equal(x, grid.irfft(projected[0]))

    def energy(uh):
        return math.sqrt(grid.inner(uh, uh - _div_a_grad(grid, a, uh)))

    factor = (a.max() - a.min()) / (a.max() + a.min())  # 0.65 in 1d, 0.94 in 2d
    assert energy(ref - x_hat) <= factor * energy(ref - grid.rfft(x))


def _readonly_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 8, 8)])
def test_solves_never_write_into_their_inputs(shape, monkeypatch):
    # the hot path scales and subtracts in place; read-only inputs make any
    # write into a caller's array raise.  Cold, warm and already-converged
    # starts, with the re-check spared by the rounding bound and (GAP = inf)
    # always made.  evolve keeps both the guess and the answer in its
    # difference tables, so they must not share memory either.
    grid = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    p = _graded_problem(grid, 1e-10)
    a, g_hat = _readonly_copy(p.a.values), _readonly_copy(np.fft.rfftn(p.g.values))
    guesses = [None] + [
        _readonly_copy(np.fft.rfftn(solve_L_info(_graded_problem(grid, tol))[0].values))
        for tol in (1e-4, 1e-11)]
    assert not np.shares_memory(_div_a_grad(grid, a, guesses[1]), guesses[1])
    for gap in (elliptic.GAP, math.inf):
        monkeypatch.setattr(elliptic, "GAP", gap)
        skipped = []
        for guess in guesses:
            out = _solve_raw(grid, a, g_hat, p.tol, None, guess)
            skipped.append(_check_solve(grid, a, g_hat, p.tol, out))
            for arr in out[:2]:
                assert arr.flags.writeable
                for given_arr in (a, g_hat, guess):
                    assert given_arr is None or not np.shares_memory(arr, given_arr)
        assert skipped == [gap < math.inf] * len(guesses)


def test_sub_floor_tolerance_gives_up_after_restart_cap():
    # 1e-13 lies below the rounding floor: every re-check fails, and the
    # solve used to restart until the 2,560-iteration cap
    grid = TorusGrid((256,), (2.0 * np.pi,))
    with pytest.raises(NotConverged) as err:
        solve_L_info(_graded_problem(grid, 1e-13))
    assert err.value.iterations <= 100
    assert err.value.residual > 1e-13


# SMALL_GRIDS and 3d tori of 4 to 8 points per axis: only in 3d does the
# mirror X[-k] compose flips and rolls over two axes
_HERMITIAN_GRIDS = SMALL_GRIDS | st.builds(
    TorusGrid,
    st.lists(st.integers(2, 4).map(lambda m: 2 * m), min_size=3, max_size=3).map(tuple),
    st.lists(st.floats(1.0, 20.0), min_size=3, max_size=3).map(tuple),
)


@given(_HERMITIAN_GRIDS, st.integers(min_value=0, max_value=2**31 - 1))
@example(TorusGrid((4, 6, 8), (1.0, 2.0, 3.0)), 0)
def test_hermitian_part_is_what_irfft_reads(grid, seed):
    # the projection that replaces the round trip rfft(irfft(xh)): exact
    # conjugate symmetry, the same samples, and the norms the bound uses
    rng = np.random.default_rng(seed)
    xh = rng.normal(size=grid.rfft_shape) + 1j * rng.normal(size=grid.rfft_shape)
    ph, off = _hermitian_part(grid, xh)

    def norm(uh):
        return float(np.sqrt(grid.inner(uh, uh) / grid.size))

    cols = ph[..., :: ph.shape[-1] - 1]  # X[k] against X[-k] over the other axes
    mirror = np.ix_(*[-np.arange(n) % n for n in grid.shape[:-1]], [0, 1])
    np.testing.assert_array_equal(cols, cols[mirror].conj())
    x = grid.irfft(xh)
    np.testing.assert_allclose(grid.irfft(ph), x, rtol=0, atol=1e-14 * np.abs(x).max())
    assert norm(grid.rfft(x) - ph) <= elliptic.RT * elliptic._EPS * norm(xh)
    assert off == pytest.approx(norm(xh - ph), rel=1e-12)
    np.testing.assert_array_equal(ph[..., 1:-1], xh[..., 1:-1])


_EVEN_SHAPES = st.lists(
    st.integers(min_value=2, max_value=6).map(lambda m: 2 * m), min_size=1, max_size=3
)


@given(_EVEN_SHAPES, st.integers(min_value=0, max_value=2**31 - 1))
@example([4, 6, 8], 0)
def test_coefficient_inner_product_is_parseval(shape, seed):
    grid = TorusGrid(tuple(shape), tuple(1.0 + j for j in range(len(shape))))
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, *grid.shape))
    got = grid.inner(np.fft.rfftn(u), np.fft.rfftn(v))
    scale = grid.size * np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(got - grid.size * np.sum(u * v)) <= 1e-12 * scale


@given(_EVEN_SHAPES, st.integers(min_value=0, max_value=2**31 - 1))
@example([4, 6, 8], 0)
def test_coefficient_apply_matches_sample_apply(shape, seed):
    grid = TorusGrid(tuple(shape), tuple(1.0 + j for j in range(len(shape))))
    rng = np.random.default_rng(seed)
    a = np.exp(0.5 * rng.normal(size=grid.shape))
    u = rng.normal(size=grid.shape)
    uh = np.fft.rfftn(u)
    got = uh - _div_a_grad(grid, a, uh)
    want = np.fft.rfftn(apply_L(Field(grid, a), Field(grid, u)).values)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@given(_EVEN_SHAPES, st.integers(min_value=0, max_value=2**31 - 1))
@example([4, 6, 8], 0)
def test_div_a_grad_is_the_textbook_sum_bit_for_bit(shape, seed):
    # the hot path scales in place and starts its sum from the first term;
    # the arithmetic and its order must stay those of this formula
    grid = TorusGrid(tuple(shape), tuple(1.0 + j for j in range(len(shape))))
    rng = np.random.default_rng(seed)
    a = np.exp(0.5 * rng.normal(size=grid.shape))
    uh = np.fft.rfftn(rng.normal(size=grid.shape))
    want = np.zeros_like(uh)
    for ik in grid.rfft_deriv_multipliers:
        flux = np.fft.irfftn(ik * uh, s=grid.shape, axes=tuple(range(grid.d)))
        want += ik * np.fft.rfftn(a * flux)
    np.testing.assert_array_equal(_div_a_grad(grid, a, uh), want)
