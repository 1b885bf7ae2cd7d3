"""Energy functional, dispersion measurement and peak tracking tests."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from magma_lab import (
    ConservedEnergyParams,
    EvolveConfig,
    Field,
    NoPeak,
    PositivityLost,
    TorusGrid,
    conserved_energy,
    energy_series,
    evolve,
    fit_dispersion,
    track_peak,
)
from magma_lab.diagnostics import _potential


def test_energy_params_validation():
    for n in (1.5, 3.5, np.nan):
        with pytest.raises(ValueError):
            ConservedEnergyParams(n=n)


@pytest.mark.parametrize("s", [2.0, 2.7, 3.5])
def test_potential_normalization_and_curvature(s):
    assert _potential(np.array(1.0), s) == pytest.approx(0.0, abs=1e-15)
    h = 1e-5
    for phi in (0.6, 1.0, 1.7):
        stencil = np.array([phi - h, phi, phi + h])
        v = _potential(stencil, s)
        first = (v[2] - v[0]) / (2 * h)
        second = (v[2] - 2 * v[1] + v[0]) / h**2
        if phi == 1.0:
            assert first == pytest.approx(0.0, abs=1e-9)
        assert second == pytest.approx(phi ** (-s), rel=1e-5)


def test_potential_limit_branches_continuous():
    phi = np.array([0.5, 0.9, 1.4, 2.2])
    inside = _potential(phi, 2.0)
    outside = _potential(phi, 2.0 + 5e-9)
    np.testing.assert_allclose(inside, outside, rtol=1e-6, atol=1e-12)


def test_conserved_energy_against_quadrature():
    g = TorusGrid((256,), (2.0 * np.pi,))
    a = 0.3
    phi = Field.from_function(g, lambda x: 1.0 + a * np.cos(x))

    def density(x, n):
        p = 1.0 + a * np.cos(x)
        grad = -a * np.sin(x)
        if abs(n - 2.0) <= 1e-9:
            V = (p - 1.0) - np.log(p)
        else:
            V = (p ** (2.0 - n) - 1.0 + (n - 2.0) * (p - 1.0)) / ((n - 1.0) * (n - 2.0))
        return 0.5 * grad**2 + V

    for n in (2.0, 2.5, 3.0):
        want, _ = quad(lambda x: density(x, n), 0.0, 2.0 * np.pi,
                       epsabs=1e-13, epsrel=1e-12)
        got = conserved_energy(phi, ConservedEnergyParams(n=n))
        assert got == pytest.approx(want, rel=1e-10)


def test_conserved_energy_positivity_guard():
    g = TorusGrid((32,), (2.0 * np.pi,))
    phi = Field.from_function(g, lambda x: 0.5 + np.cos(x))
    with pytest.raises(PositivityLost):
        conserved_energy(phi, ConservedEnergyParams(n=2.0))


def test_energy_conserved_along_flow_1d():
    g = TorusGrid((64,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
    cfg = EvolveConfig(
        n_exponent=2.0, dt=1e-2, t_end=0.5, snapshot_every=10, elliptic_tol=1e-12
    )
    result = evolve(phi0, cfg)
    times, energies = energy_series(result.snapshots, ConservedEnergyParams(n=2.0))
    assert len(times) == len(result.snapshots)
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert drift <= 1e-9


def test_energy_conserved_along_flow_2d():
    g = TorusGrid((32, 32), (2.0 * np.pi, 2.0 * np.pi))
    phi0 = Field.from_function(
        g, lambda x, y: 1.0 + 0.15 * np.cos(y) + 0.1 * np.cos(x + y)
    )
    cfg = EvolveConfig(
        n_exponent=2.0, dt=2e-2, t_end=0.2, snapshot_every=2, elliptic_tol=1e-11
    )
    result = evolve(phi0, cfg)
    _, energies = energy_series(result.snapshots, ConservedEnergyParams(n=2.0))
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert drift <= 1e-6


def test_fit_dispersion_validation():
    g = TorusGrid((32, 32), (2.0 * np.pi, 2.0 * np.pi))
    with pytest.raises(ValueError):
        fit_dispersion(g, 2.0, (1,))
    with pytest.raises(ValueError):
        fit_dispersion(g, 2.0, (0, 0))
    with pytest.raises(ValueError):
        fit_dispersion(g, 2.0, (1, 0))  # no component along the driven axis


def test_fit_dispersion_small_amplitude():
    g = TorusGrid((64,), (2.0 * np.pi,))
    fit = fit_dispersion(g, 2.0, (1,))
    assert fit.omega_formula == pytest.approx(1.0)
    assert fit.relative_error <= 1e-3
    fit2 = fit_dispersion(g, 2.5, (2,))
    assert fit2.omega_formula == pytest.approx(2.5 * 2.0 / 5.0)
    assert fit2.relative_error <= 1e-3


def _bump_snapshots(v, times, grid=None):
    g = grid or TorusGrid((128,), (2.0 * np.pi,))
    out = []
    for t in times:
        if g.d == 1:
            fn = lambda x: 1.0 + np.exp(np.cos(x - v * t) - 1.0)
        else:
            fn = lambda x, y: 1.0 + np.exp(np.cos(y - v * t) - 1.0) * (
                1.0 + 0.3 * np.cos(x)
            )
        out.append((t, Field.from_function(g, fn)))
    return out


def test_track_peak_speed_and_unwrap():
    v = 7.0  # crosses the periodic boundary within the window
    times = np.linspace(0.0, 0.9, 10)
    track = track_peak(_bump_snapshots(v, times))
    assert track.speed == pytest.approx(v, rel=1e-3)
    assert np.all(np.diff(track.positions) > 0.0)
    total = track.positions[-1] - track.positions[0]
    assert total == pytest.approx(v * 0.9, rel=1e-3)
    assert total > 2.0 * np.pi  # genuinely unwrapped


def test_track_peak_2d_moves_along_last_axis():
    g = TorusGrid((32, 64), (2.0 * np.pi, 2.0 * np.pi))
    v = 1.3
    times = np.linspace(0.0, 1.0, 6)
    track = track_peak(_bump_snapshots(v, times, grid=g))
    assert track.speed == pytest.approx(v, rel=1e-2)


def test_track_peak_errors():
    g = TorusGrid((32,), (2.0 * np.pi,))
    flat = [(float(t), Field.constant(g, 1.0)) for t in range(6)]
    with pytest.raises(NoPeak):
        track_peak(flat)
    few = _bump_snapshots(1.0, np.linspace(0.0, 0.3, 4))
    with pytest.raises(ValueError):
        track_peak(few)
