"""Acceptance suite: one test per numbered criterion, stated tolerances.

Each test carries the `criterion` marker; the terminal summary prints one
pass/fail line per criterion.  Wall-clock budgets are asserted where the
criterion states one.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from magma_lab import (
    ConservedEnergyParams,
    EllipticProblem,
    EvolveConfig,
    F1,
    F2,
    F3,
    Field,
    ProfileParams,
    ShotClass,
    TorusGrid,
    Verdict,
    apply_L,
    embed_on_torus,
    energy_series,
    evolve,
    find_mu_c,
    fit_dispersion,
    hs_norm,
    integrate_shot,
    ode_residual,
    rescale,
    solve_L_info,
    spectral_derivative,
    step_rk4,
    structure_report,
    track_peak,
)

EXAMPLE = ProfileParams(d=3.0, n=2.5, c=1.7)


@pytest.fixture(scope="module")
def example_critical():
    return find_mu_c(EXAMPLE)


@pytest.fixture(scope="module")
def planar_critical():
    return find_mu_c(ProfileParams(d=2.0, n=2.5, c=1.7))


@pytest.mark.criterion(1, "example regime: oracle minimum, caseI shot, mu_c, decay")
def test_criterion_01_example_regime():
    import mpmath as mp

    t0 = time.perf_counter()

    with mp.workdps(50):  # for this oracle only, not for the rest of the process
        n, c, d = mp.mpf("2.5"), mp.mpf("1.7"), mp.mpf(3)
        Q1 = (c / n) ** (1 / (n - 1))
        g1 = -(Q1 ** (1 - n) - 1) / (n - 1) - (n / c) * mp.log(Q1)
        oracle = float(-g1 / d)
    assert oracle == pytest.approx(-0.02145832706274009, abs=1e-16)

    report = structure_report(EXAMPLE)
    assert report.mu1_min == pytest.approx(-0.02146, abs=2e-4)
    assert report.mu1_min == pytest.approx(oracle, abs=1e-12)

    outcome, _ = integrate_shot(replace(EXAMPLE, mu=-0.021), keep_samples=False)
    assert outcome.classification is ShotClass.CROSSED

    mu_c, sol = find_mu_c(EXAMPLE)
    assert -0.021 < mu_c <= report.mu2_min

    fit = sol.decay
    assert fit is not None
    assert sol.Q_tau < (1.7 / 2.5) ** (2.0 / 3.0)
    assert fit.k > 0.0

    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(2, "5x5x5 parameter grid: ordering, endpoint shots, mu_c bracket")
def test_criterion_02_parameter_grid():
    t0 = time.perf_counter()
    dims = (1.0, 2.0, 3.0, 4.0, 7.0)
    for d in dims:
        for n in np.linspace(2.0, 3.0, 5):
            for c in np.linspace(1.55, n - 0.05, 5):
                p = ProfileParams(d=d, n=float(n), c=float(c))
                rep = structure_report(p)
                assert rep.mu3_min < rep.mu1_min < rep.mu2_min < 0.0

                out_lo, _ = integrate_shot(
                    replace(p, mu=2.0 * rep.mu3_min), r_max=800.0, keep_samples=False
                )
                assert out_lo.classification is ShotClass.CROSSED

                out_hi, _ = integrate_shot(
                    replace(p, mu=rep.mu2_min / 2.0), r_max=800.0, keep_samples=False
                )
                assert out_hi.classification is not ShotClass.CROSSED

                mu_c, sol = find_mu_c(p, bisect_tol=1e-8)
                assert rep.mu3_min * (1.0 + 1e-3) < mu_c <= rep.mu2_min
                assert rep.Q_star < sol.Q_tau < 1.0
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.criterion(3, "structure functions vs adaptive quadrature at 1000 points")
def test_criterion_03_structure_quadrature():
    rng = np.random.default_rng(123)
    dims = (1.0, 2.0, 3.0, 4.0, 7.0)
    for _ in range(1000):
        d = float(rng.choice(dims))
        n = float(rng.uniform(2.0, 3.0))
        c = float(rng.uniform(1.55, n - 0.05))
        Q = float(rng.uniform(0.05, 0.999))
        mu = float(rng.uniform(-0.5, -1e-3))
        p = ProfileParams(d=d, n=n, c=c, mu=mu)

        # level 2 from level 1: F2(Q) = int_1^Q F1(t) t^n dt
        want2, _ = quad(
            lambda t: F1(t, p) * t**n, 1.0, Q, epsabs=1e-14, epsrel=1e-13
        )
        got2 = F2(Q, p)
        assert abs(got2 - want2) <= 1e-10 * max(1.0, abs(want2))

        # level 3 from level 2: F3(Q) = F1(Q) - n int_1^Q F2(t) t^{-(n+2)} dt
        want3_int, _ = quad(
            lambda t: F2(t, p) * t ** (-(n + 2.0)), 1.0, Q,
            epsabs=1e-14, epsrel=1e-13,
        )
        want3 = F1(Q, p) - n * want3_int
        got3 = F3(Q, p)
        assert abs(got3 - want3) <= 1e-10 * max(1.0, abs(want3))

    # background values are exact, not merely close
    p = ProfileParams(d=3.0, n=2.5, c=1.7, mu=-0.25)
    assert F1(1.0, p) == p.d * p.mu
    assert F2(1.0, p) == 0.0


@pytest.mark.criterion(4, "profile ODE residual below 1e-7 and monotone descent")
def test_criterion_04_profile_residual(example_critical, planar_critical):
    for mu_c, sol in (example_critical, planar_critical):
        res = ode_residual(sol.samples, sol.params)
        assert np.max(np.abs(res)) <= 1e-7
        # monotone within double-precision zero
        assert float(sol.samples.Q_r.max()) <= 1e-12


@pytest.mark.criterion(5, "manufactured elliptic solve, residual contract, SPD checks")
def test_criterion_05_elliptic_manufactured():
    t0 = time.perf_counter()
    g = TorusGrid((64, 64), (2.0 * np.pi, 2.0 * np.pi))
    x, y = g.meshgrid()
    a = Field(g, 2.0 + 0.5 * np.sin(x + y))
    u_exact = Field(g, np.cos(x) + 0.3 * np.sin(2.0 * y) + 0.2 * np.cos(x + 3.0 * y))
    rhs = apply_L(a, u_exact)

    tol = 1e-12
    u = solve_L_info(EllipticProblem(a=a, g=rhs, tol=tol))[0]
    rel = hs_norm(u - u_exact, 0.0) / hs_norm(u_exact, 0.0)
    assert rel <= 1e-9

    res = rhs - apply_L(a, u)
    assert np.linalg.norm(res.values) <= tol * np.linalg.norm(rhs.values)

    rng = np.random.default_rng(99)
    for _ in range(100):
        av = Field(g, np.exp(0.4 * rng.normal(size=g.shape).clip(-2.5, 2.5)))
        uu = Field(g, rng.normal(size=g.shape))
        vv = Field(g, rng.normal(size=g.shape))
        lhs = np.sum(apply_L(av, uu).values * vv.values)
        rhs_ip = np.sum(uu.values * apply_L(av, vv).values)
        assert abs(lhs - rhs_ip) <= 1e-9 * max(1.0, abs(lhs))
        quad_form = np.sum(apply_L(av, uu).values * uu.values)
        assert quad_form >= (1.0 - 1e-10) * np.sum(uu.values**2)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(6, "linear dispersion measured to 1e-3 in d=1 and d=2")
def test_criterion_06_dispersion():
    t0 = time.perf_counter()
    g1 = TorusGrid((128,), (2.0 * np.pi,))
    for mode in ((1,), (2,)):
        fit = fit_dispersion(g1, 2.0, mode)
        assert fit.relative_error <= 1e-3

    g2 = TorusGrid((64, 64), (2.0 * np.pi, 2.0 * np.pi))
    for mode in ((0, 1), (1, 2)):
        fit = fit_dispersion(g2, 2.5, mode)
        assert fit.relative_error <= 1e-3
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(7, "energy and mass conserved over t in [0,5] at N=256")
def test_criterion_07_conservation():
    t0 = time.perf_counter()
    g = TorusGrid((256,), (2.0 * np.pi,))
    rng = np.random.default_rng(1)
    x = g.axis_coordinates(0)
    vals = np.ones(g.shape)
    for m in range(1, 6):
        vals += (0.08 / m) * np.cos(m * x + rng.uniform(0.0, 2.0 * np.pi))
    phi0 = Field(g, vals)
    assert phi0.values.min() >= 0.5

    cfg = EvolveConfig(
        n_exponent=2.0, dt=1e-3, t_end=5.0, snapshot_every=250, elliptic_tol=1e-12
    )
    result = evolve(phi0, cfg)
    rep = result.report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END

    _, energies = energy_series(result.snapshots, ConservedEnergyParams(n=2.0))
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert drift <= 1e-8

    mass_drift = np.max(np.abs(rep.mass - rep.mass[0]))
    assert mass_drift <= 1e-10
    assert time.perf_counter() - t0 < 120.0


def _transit_setup(sol, n_side: int, widths: float, steps: int, snap_every: int):
    """Embed the critical profile; the quarter-domain transit's config."""
    p = sol.params
    q0 = 1.0 / sol.Q_tau
    scaled = rescale(sol, q0)
    c_bar = scaled.scaling.c_bar
    assert c_bar > p.n
    width = scaled.scaling.r_scale / sol.decay.k
    side = widths * width
    grid = TorusGrid((n_side,) * int(p.d), (side,) * int(p.d))
    phi0 = embed_on_torus(sol, grid)

    T = 0.25 * side / c_bar
    cfg = EvolveConfig(
        n_exponent=p.n, dt=T / steps, t_end=T, snapshot_every=snap_every
    )
    return phi0, cfg, c_bar, side


def _transit_checks(phi0, snapshots, c_bar):
    """Speed error, shape deviation and tracked offset of a transit."""
    grid = phi0.grid
    track = track_peak(snapshots)
    delta = track.positions[-1] - track.positions[0]

    # compare against the initial profile translated by the tracked offset
    k_last = grid.axis_wavenumbers(grid.d - 1)
    shifted = np.fft.ifft(
        np.fft.fft(phi0.values, axis=-1) * np.exp(-1j * k_last * delta), axis=-1
    ).real
    phiT = snapshots[-1][1].values
    shape_dev = np.sqrt(np.sum((phiT - shifted) ** 2)) / np.sqrt(
        np.sum((phi0.values - 1.0) ** 2)
    )
    speed_err = abs(track.speed - c_bar) / c_bar
    return speed_err, shape_dev, delta


def _transit_case(sol, n_side: int, widths: float, steps: int, snap_every: int):
    """Embed the critical profile and time a quarter-domain transit."""
    phi0, cfg, c_bar, side = _transit_setup(sol, n_side, widths, steps, snap_every)
    result = evolve(phi0, cfg)
    assert result.report.verdict is Verdict.COMPLETED_TO_T_END
    return (*_transit_checks(phi0, result.snapshots, c_bar), side)


@pytest.mark.criterion(8, "embedded solitary wave transits at speed c_bar")
def test_criterion_08_transit_2d(planar_critical):
    t0 = time.perf_counter()
    _, sol = planar_critical
    speed_err, shape_dev, delta, side = _transit_case(
        sol, n_side=128, widths=44.0, steps=320, snap_every=40
    )
    assert speed_err <= 0.02
    assert shape_dev <= 0.01
    assert delta == pytest.approx(0.25 * side, rel=0.05)
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.slow
def test_transit_2d_as_chained_calls(planar_critical):
    # the benchmark's shape of criterion 8: sixteen evolve calls of 20 steps,
    # each from the Field the last one returned, are one 320-step call
    _, sol = planar_critical
    phi0, cfg, c_bar, side = _transit_setup(sol, n_side=128, widths=44.0, steps=320,
                                            snap_every=40)
    one = evolve(phi0, cfg)
    segment = replace(cfg, t_end=20 * cfg.dt)
    phi, snapshots = phi0, [(0.0, phi0)]
    for k in range(1, 17):
        result = evolve(phi, segment)
        assert result.report.verdict is Verdict.COMPLETED_TO_T_END
        phi = result.snapshots[-1][1]
        if k % 2 == 0:
            snapshots.append((k * segment.t_end, phi))
    assert len(snapshots) == len(one.snapshots) == 9
    for (_, chained), (_, single) in zip(snapshots, one.snapshots):
        assert np.array_equal(chained.values, single.values)
    speed_err, shape_dev, delta = _transit_checks(phi0, snapshots, c_bar)
    assert speed_err <= 0.02
    assert shape_dev <= 0.01
    assert delta == pytest.approx(0.25 * side, rel=0.05)


@pytest.mark.slow
@pytest.mark.criterion(8, "embedded solitary wave transits at speed c_bar (d=2 and d=3)")
def test_criterion_08_transit_3d(example_critical):
    t0 = time.perf_counter()
    _, sol = example_critical
    speed_err, shape_dev, _, _ = _transit_case(
        sol, n_side=64, widths=44.0, steps=160, snap_every=20
    )
    assert speed_err <= 0.05
    assert shape_dev <= 0.05
    assert time.perf_counter() - t0 < 1200.0


@pytest.mark.criterion(9, "threshold verdict fires dynamically; flat run completes")
def test_criterion_09_verdicts():
    g = TorusGrid((128,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.5 * np.cos(x))
    probe = evolve(phi0, EvolveConfig(n_exponent=2.0, dt=1e-2, t_end=1e-2))
    mon0 = probe.report.monitor[0]

    threshold = 1.05 * mon0
    res = evolve(
        phi0,
        EvolveConfig(n_exponent=2.0, dt=1e-2, t_end=3.0, blowup_threshold=threshold),
    )
    assert res.report.verdict is Verdict.THRESHOLD_EXCEEDED
    assert res.report.t_event is not None and res.report.t_event > 0.0
    assert res.report.monitor[-1] > threshold

    flat = evolve(
        Field.constant(g, 1.0), EvolveConfig(n_exponent=2.0, dt=1e-2, t_end=1.0)
    )
    assert flat.report.verdict is Verdict.COMPLETED_TO_T_END
    assert flat.report.monitor[-1] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.criterion(10, "RK4 order via Richardson; spectral derivative to 1e-9")
def test_criterion_10_convergence_orders():
    g = TorusGrid((64,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.3 * np.cos(x))
    T = 0.4

    def final_state(steps: int) -> np.ndarray:
        cfg = EvolveConfig(
            n_exponent=2.0, dt=T / steps, t_end=T, elliptic_tol=1e-12
        )
        out = evolve(phi0, cfg)
        assert out.report.verdict is Verdict.COMPLETED_TO_T_END
        return out.snapshots[-1][1].values

    f1, f2, f3 = final_state(10), final_state(20), final_state(40)
    order = np.log2(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3))
    assert 3.5 < order < 4.5

    f = Field.from_function(g, lambda x: np.exp(np.sin(x)))
    want = Field.from_function(g, lambda x: np.cos(x) * np.exp(np.sin(x)))
    err = np.max(np.abs(spectral_derivative(f, 0).values - want.values))
    assert err <= 1e-9

    g2 = TorusGrid((48, 48), (2.0 * np.pi, 2.0 * np.pi))
    f2d = Field.from_function(g2, lambda x, y: np.exp(0.5 * np.sin(x + 2.0 * y)))
    want2 = Field.from_function(
        g2, lambda x, y: np.cos(x + 2.0 * y) * np.exp(0.5 * np.sin(x + 2.0 * y))
    )
    err2 = np.max(np.abs(spectral_derivative(f2d, 1).values - want2.values))
    assert err2 <= 1e-9
