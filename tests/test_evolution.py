"""Time stepping, verdict taxonomy and monitor tests."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import SMALL_GRIDS, smooth_random_field
from hypothesis import given, settings
from hypothesis import strategies as st

from magma_lab import (
    ConservedEnergyParams,
    EvolveConfig,
    Field,
    NotConverged,
    PositivityLost,
    TorusGrid,
    Verdict,
    apply_L,
    energy_series,
    evolution,
    evolve,
    field_stats,
    hs_norm,
    measure_mass,
    monitor_index,
    rhs,
    spectral_derivative,
    step_rk4,
)


def _cfg(**kw) -> EvolveConfig:
    base = dict(n_exponent=2.0, dt=1e-2, t_end=0.1)
    base.update(kw)
    return EvolveConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_exponent=1.5)
    with pytest.raises(ValueError):
        _cfg(n_exponent=3.5)
    with pytest.raises(ValueError):
        _cfg(dt=0.0)
    with pytest.raises(ValueError):
        _cfg(t_end=-1.0)
    with pytest.raises(ValueError):
        _cfg(s_monitor=-0.5)
    with pytest.raises(ValueError):
        _cfg(blowup_threshold=0.0)
    with pytest.raises(ValueError):
        _cfg(elliptic_tol=-1e-10)
    with pytest.raises(ValueError):
        _cfg(snapshot_every=-1)
    for bad in (dict(dt=np.inf), dict(dt=np.nan), dict(t_end=np.inf),
                dict(dt=1e-300, t_end=1e300), dict(s_monitor=np.nan),
                dict(s_monitor=np.inf), dict(elliptic_tol=np.inf)):
        with pytest.raises(ValueError):
            _cfg(**bad)


def test_monitor_index_defaults_and_override():
    cases = {1: 3.5, 2: 5.0, 3: 5.5, 7: 9.5}
    for d, want in cases.items():
        g = TorusGrid.cubic(d, 4)
        assert monitor_index(_cfg(), g) == monitor_index(None, g) == pytest.approx(want)
    g1 = TorusGrid.cubic(1, 16)
    assert monitor_index(_cfg(s_monitor=2.25), g1) == 2.25


def test_rhs_satisfies_defining_equation():
    # L_{phi^n}[C] = -(phi^n)_{x_d} defines the compaction rate C
    g = TorusGrid((64, 64), (2.0 * np.pi, 2.0 * np.pi))
    phi = Field.from_function(
        g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(y) + 0.1 * np.cos(2 * y)
    )
    cfg = _cfg(n_exponent=2.5, elliptic_tol=1e-13)
    c = rhs(phi, cfg)
    a = phi**2.5
    lhs = apply_L(a, c)
    want = -spectral_derivative(a, 1).values
    scale = np.linalg.norm(want)
    assert np.linalg.norm(lhs.values - want) <= 2e-13 * scale


def test_rhs_linearization_matches_dispersion():
    # rhs(1 + eps cos(kx)) = eps * n k/(1+k^2) * sin(kx) + O(eps^2)
    g = TorusGrid((128,), (2.0 * np.pi,))
    eps, k, n = 1e-5, 2.0, 2.0
    phi = Field.from_function(g, lambda x: 1.0 + eps * np.cos(k * x))
    c = rhs(phi, _cfg(n_exponent=n, elliptic_tol=1e-12))
    x = g.axis_coordinates(0)
    want = eps * (n * k / (1.0 + k * k)) * np.sin(k * x)
    np.testing.assert_allclose(c.values, want, atol=50 * eps**2)


@settings(max_examples=50)
@given(SMALL_GRIDS, st.floats(2.0, 3.0), st.floats(0.01, 0.6), st.integers(0, 2**32 - 1))
def test_rhs_has_no_mean(grid, n, amplitude, seed):
    # the k = 0 mode of L^{-1} d/dx_d(phi^n) is that of d/dx_d(phi^n), zero:
    # this is what conserves the mass
    phi = smooth_random_field(grid, np.random.default_rng(seed), amplitude=amplitude)
    N = rhs(phi, _cfg(n_exponent=n)).values
    assert abs(N.mean()) <= 1e-12 * np.abs(N).max()


def test_rhs_positivity_guard():
    g = TorusGrid((32,), (2.0 * np.pi,))
    phi = Field.from_function(g, lambda x: 0.5 + np.cos(x))
    with pytest.raises(PositivityLost):
        rhs(phi, _cfg())


def test_step_rk4_validation_and_accuracy():
    g = TorusGrid((64,), (2.0 * np.pi,))
    phi = Field.from_function(g, lambda x: 1.0 + 0.2 * np.cos(x))
    cfg = _cfg(elliptic_tol=1e-12)
    with pytest.raises(ValueError):
        step_rk4(phi, 0.0, cfg)
    dt = 0.1
    one = step_rk4(phi, dt, cfg)
    half = step_rk4(step_rk4(phi, dt / 2, cfg), dt / 2, cfg)
    # both are O(dt^5)-accurate so they agree to that order
    assert np.max(np.abs(one.values - half.values)) < 5e-8


def test_measure_mass():
    g = TorusGrid((64,), (4.0,))
    assert measure_mass(Field.constant(g, 1.0)) == pytest.approx(0.0, abs=1e-14)
    assert measure_mass(Field.constant(g, 1.5)) == pytest.approx(2.0)
    f = Field.from_function(g, lambda x: 1.0 + np.cos(2.0 * np.pi * x / 4.0))
    assert measure_mass(f) == pytest.approx(0.0, abs=1e-12)


def test_evolve_completes_and_conserves_mass():
    g = TorusGrid((64,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.2 * np.cos(x))
    cfg = _cfg(dt=1e-2, t_end=0.2, snapshot_every=5)
    result = evolve(phi0, cfg)
    rep = result.report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END
    assert rep.t_event is None
    assert rep.times[0] == 0.0
    assert rep.times[-1] == pytest.approx(0.2)
    assert len(rep.times) == len(rep.monitor) == len(rep.mass) == len(rep.cg_iterations)
    assert rep.cg_iterations[0] == 0
    drift = np.max(np.abs(rep.mass - rep.mass[0]))
    assert drift <= 1e-12
    times = [t for t, _ in result.snapshots]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.2)
    assert len(times) == 1 + 4  # t=0, steps 5/10/15, final


def test_evolve_handles_partial_final_step(monkeypatch):
    g = TorusGrid((32,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.1 * np.cos(x))
    calls = _count_rhs_calls(monkeypatch)
    result = evolve(phi0, _cfg(dt=0.1, t_end=0.55))
    assert result.report.verdict is Verdict.COMPLETED_TO_T_END
    # bounded work: five full steps and the remainder, four solves each
    assert calls[0] == 4 * 6
    # times are k*dt, not accumulated sums, and the remainder step ends on t_end
    assert list(result.report.times) == [k * 0.1 for k in range(6)] + [0.55]
    # three full steps; the last time is t_end, not 3*0.1 = 0.30000000000000004
    rep = evolve(phi0, _cfg(dt=0.1, t_end=0.3)).report
    assert list(rep.times) == [0.0, 0.1, 0.2, 0.3]


def test_immediate_verdicts_at_t0():
    g = TorusGrid((32,), (2.0 * np.pi,))
    neg = Field.from_function(g, lambda x: 0.4 + 0.5 * np.cos(x))
    res = evolve(neg, _cfg())
    assert res.report.verdict is Verdict.POSITIVITY_LOST
    assert res.report.t_event == 0.0
    assert len(res.snapshots) == 1

    ok = Field.from_function(g, lambda x: 1.0 + 0.3 * np.cos(x))
    res = evolve(ok, _cfg(blowup_threshold=1e-3))
    assert res.report.verdict is Verdict.THRESHOLD_EXCEEDED
    assert res.report.t_event == 0.0
    assert res.report.monitor[-1] > 1e-3


def test_threshold_exceeded_mid_run():
    g = TorusGrid((128,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.5 * np.cos(x))
    cfg = _cfg(dt=1e-2, t_end=3.0)
    mon0 = evolve(phi0, _cfg(dt=1e-2, t_end=1e-2)).report.monitor[0]
    res = evolve(phi0, EvolveConfig(
        n_exponent=2.0, dt=1e-2, t_end=3.0, blowup_threshold=1.05 * mon0
    ))
    rep = res.report
    assert rep.verdict is Verdict.THRESHOLD_EXCEEDED
    assert rep.t_event is not None and rep.t_event > 0.0
    assert rep.monitor[-1] > 1.05 * mon0
    assert cfg.t_end > rep.t_event


def test_elliptic_failure_verdict():
    g = TorusGrid((64,), (2.0 * np.pi,))
    phi0 = Field.from_function(g, lambda x: 1.0 + 0.3 * np.cos(x))
    res = evolve(phi0, _cfg(elliptic_tol=1e-16))  # below the 1e-12 floor
    assert res.report.verdict is Verdict.ELLIPTIC_FAILURE
    assert res.report.t_event == pytest.approx(0.01)


def test_constant_background_is_steady():
    g = TorusGrid((32, 32), (2.0 * np.pi, 2.0 * np.pi))
    res = evolve(Field.constant(g, 1.0), _cfg(dt=0.05, t_end=0.5))
    assert res.report.verdict is Verdict.COMPLETED_TO_T_END
    assert res.report.monitor[-1] == pytest.approx(1.0, abs=1e-12)
    final = res.snapshots[-1][1]
    np.testing.assert_allclose(final.values, 1.0, atol=1e-12)


def _count_rhs_calls(monkeypatch) -> list[int]:
    """Count elliptic solves."""
    real, calls = evolution._rhs_raw, [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(evolution, "_rhs_raw", counted)
    return calls


def _count_cg_iterations(monkeypatch) -> list[int]:
    """Sum the CG iterations of every converged elliptic solve."""
    real, solved = evolution._solve_raw, [0]

    def counted(*args):
        out = real(*args)
        solved[0] += out[-1].iterations  # the CGInfo comes last
        return out

    monkeypatch.setattr(evolution, "_solve_raw", counted)
    return solved


def _criterion7_phi0(seed: int) -> Field:
    """Criterion 7's initial data: five random-phase modes of amplitude 0.08/m."""
    g = TorusGrid((256,), (2.0 * np.pi,))
    rng = np.random.default_rng(seed)
    x = g.axis_coordinates(0)
    vals = np.ones(g.shape)
    for m in range(1, 6):
        vals += (0.08 / m) * np.cos(m * x + rng.uniform(0.0, 2.0 * np.pi))
    return Field(g, vals)


def test_solve_restarts_after_failed_recheck():
    # at 1e-12 a recursive residual that passes but a true one that fails
    # used to send CG off on a stale direction: elliptic_failure at t = 0.042
    cfg = _cfg(dt=1e-3, t_end=0.1, elliptic_tol=1e-12)
    rep = evolve(_criterion7_phi0(205), cfg).report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END


def test_stuck_guessed_solve_restarts_cold(monkeypatch):
    # at 1e-12 the solve of criterion-7 seed 101 at t = 2.894 failed all its
    # re-checks from the extrapolated guess and passed from zero; a failed
    # solve from a guess is solved again from zero, and both are counted
    real = evolution._solve_raw

    def stuck(grid, a, g_hat, tol, max_iter, x0h=None):
        if x0h is not None:
            raise NotConverged(7, 1.03e-12)
        return real(grid, a, g_hat, tol, max_iter, x0h)

    monkeypatch.setattr(evolution, "_solve_raw", stuck)
    phi, cfg = _criterion7_phi0(1), _cfg(elliptic_tol=1e-12)
    got = evolution._rhs_raw(phi.grid, phi.values, cfg, np.fft.rfftn(phi.values))
    cold = evolution._rhs_raw(phi.grid, phi.values, cfg, None)
    np.testing.assert_array_equal(got[0], cold[0])
    assert got[2] == 7 + cold[2] > 7


def test_stage_guesses_cut_cg_work(monkeypatch):
    # extrapolated stage guesses: the parent's stage-to-stage guesses took
    # 22.3 CG iterations per step here
    solved = _count_cg_iterations(monkeypatch)
    cfg = _cfg(dt=1e-3, t_end=0.2, elliptic_tol=1e-10)
    rep = evolve(_criterion7_phi0(1), cfg).report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END
    assert len(rep.cg_iterations) == 1 + 200
    assert rep.cg_iterations[4:].mean() <= 8.0  # steps 4-200, full history
    assert solved[0] == int(rep.cg_iterations.sum())


def _bump_2d() -> Field:
    """A Gaussian bump of height 0.3 on a 64^2 torus of side 30."""
    g = TorusGrid((64, 64), (30.0, 30.0))
    return Field.from_function(
        g, lambda x, y: 1.0 + 0.3 * np.exp(-((x - 15.0) ** 2 + (y - 15.0) ** 2) / 9.0)
    )


def test_stage_guesses_cut_cg_work_2d(monkeypatch):
    # the fixed order-3 extrapolation this replaced took 19.5 CG iterations
    # per step here; the backward-difference series takes 12.4
    solved = _count_cg_iterations(monkeypatch)
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=2.0, elliptic_tol=1e-10)
    rep = evolve(_bump_2d(), cfg).report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END
    assert len(rep.cg_iterations) == 1 + 40
    assert rep.cg_iterations[6:].mean() <= 14.0  # steps 6-40, full table
    assert solved[0] == int(rep.cg_iterations.sum())


@pytest.mark.parametrize("phi0", [_criterion7_phi0(1), _bump_2d()], ids=["1d", "2d"])
def test_logged_monitor_matches_the_public_pieces(phi0):
    # the logged columns equal the public functions of the snapshots bit for
    # bit; test_cli.py checks embed's sidecar and report the same way
    cfg = _cfg(n_exponent=2.5, dt=0.02, t_end=0.1, snapshot_every=1)
    result = evolve(phi0, cfg)
    rep, s = result.report, monitor_index(cfg, phi0.grid)
    assert len(result.snapshots) == len(rep.times) == 6
    for i, (t, fld) in enumerate(result.snapshots):
        stats = field_stats(fld)
        assert t == rep.times[i]
        assert rep.monitor[i] == hs_norm(fld - 1.0, s) + stats.inv_sup
        assert rep.mass[i] == measure_mass(fld)
        assert rep.min_phi[i] == stats.min


def test_chained_evolve_continues_the_run():
    # each call used to start its stage-guess tables empty: 44, 35, 27, ...
    # CG iterations at the head of every segment
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=2.0, elliptic_tol=1e-10)
    one = evolve(_bump_2d(), cfg)
    phi, cg = _bump_2d(), []
    for _ in range(4):  # each call from the Field the last one returned
        result = evolve(phi, replace(cfg, t_end=10 * cfg.dt))
        cg += list(result.report.cg_iterations[1:])
        phi = result.snapshots[-1][1]
    assert np.array_equal(phi.values, one.snapshots[-1][1].values)
    assert cg == list(one.report.cg_iterations[1:])


def test_chained_evolve_starts_cold_unless_it_continues():
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=0.5, elliptic_tol=1e-10)

    def end(c: EvolveConfig) -> Field:
        return evolve(_bump_2d(), c).snapshots[-1][1]

    def rebuilt() -> Field:
        phi = end(cfg)  # stays alive, so its run can still be continued
        return Field(phi.grid, phi.values)

    def after_verdict() -> Field:
        result = evolve(_bump_2d(), replace(cfg, blowup_threshold=3.289))
        assert result.report.verdict is Verdict.THRESHOLD_EXCEEDED
        assert result.report.t_event > 0.0
        return result.snapshots[-1][1]

    phi = end(cfg)
    warm = evolve(phi, cfg)
    cold = evolve(Field(phi.grid, phi.values), cfg)  # a new Field never continues
    assert warm.report.cg_iterations[1] < cold.report.cg_iterations[1]
    for label, start, c in [
        ("rebuilt field", rebuilt, cfg),
        ("other dt", lambda: end(cfg), replace(cfg, dt=0.025)),
        ("other n", lambda: end(cfg), replace(cfg, n_exponent=2.0)),
        ("other tol", lambda: end(cfg), replace(cfg, elliptic_tol=1e-11)),
        ("shortened last step", lambda: end(replace(cfg, t_end=0.52)), cfg),
        ("verdict", after_verdict, cfg),
    ]:
        phi = start()
        got = evolve(phi, c)
        cold = evolve(Field(phi.grid, phi.values), c)
        assert np.array_equal(got.snapshots[-1][1].values, cold.snapshots[-1][1].values), label
        assert np.array_equal(got.report.cg_iterations, cold.report.cg_iterations), label


def test_carried_tables_are_moved_and_die_with_the_field():
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=0.5, elliptic_tol=1e-10)
    result = evolve(_bump_2d(), cfg)
    tables = evolution._carried[result.snapshots[-1][1]][2]
    result = evolve(result.snapshots[-1][1], cfg)
    assert evolution._carried[result.snapshots[-1][1]][2] is tables  # moved, not copied
    carried = weakref.ref(tables[0][0])
    del tables
    evolve(_bump_2d(), replace(cfg, blowup_threshold=1e-3))  # a verdict at t = 0
    assert not evolution._carried and carried() is None  # emptied on every call
    result = evolve(_bump_2d(), cfg)
    carried = weakref.ref(evolution._carried[result.snapshots[-1][1]][2][0][0])
    del result
    gc.collect()
    assert carried() is None and not evolution._carried


def test_carried_map_holds_one_entry():
    # every call empties the map, so runs whose final Fields stay alive
    # (perfbench keeps each op's result) never pile up table sets
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=0.5, elliptic_tol=1e-10)
    older = evolve(_bump_2d(), cfg).snapshots[-1][1]
    newer = evolve(_bump_2d(), cfg).snapshots[-1][1]
    assert len(evolution._carried) == 1 and newer in evolution._carried
    got = evolve(older, cfg)
    cold = evolve(Field(older.grid, older.values), cfg)
    assert np.array_equal(got.snapshots[-1][1].values, cold.snapshots[-1][1].values)
    assert np.array_equal(got.report.cg_iterations, cold.report.cg_iterations)


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 16).map(lambda m: 2 * m),
       st.lists(st.integers(1, 12), min_size=2, max_size=4), st.integers(0, 2**32 - 1))
def test_chain_equals_one_call_for_any_split(n_points, segments, seed):
    # segments shorter than ORDER continue tables that are only partly filled
    phi0 = smooth_random_field(TorusGrid((n_points,), (12.0,)), np.random.default_rng(seed))
    cfg = _cfg(n_exponent=2.5, dt=0.05, t_end=0.05 * sum(segments))
    one = evolve(phi0, cfg)
    phi, cg = phi0, []
    for steps in segments:
        result = evolve(phi, replace(cfg, t_end=0.05 * steps))
        cg += list(result.report.cg_iterations[1:])
        phi = result.snapshots[-1][1]
    assert np.array_equal(phi.values, one.snapshots[-1][1].values)
    assert cg == list(one.report.cg_iterations[1:])


def _table(offsets) -> list:
    """The backward-difference table of ``offsets``, oldest first."""
    table: list = []
    for o in offsets:
        evolution._push(table, np.array(o, dtype=float))
    return table


def test_extrapolate_reproduces_polynomial_offsets():
    base, v = np.array([0.5, -2.0]), np.array([1.0, 2.0])
    assert evolution._extrapolate(base, [], 1e-10) is base
    assert evolution._extrapolate(None, _table([base]), 1e-10) is None
    # offsets o_j = p(j) v at steps j = 0..4 must give o_5 exactly when p
    # has degree <= 4; the differences of these fall, and vanish above
    # the degree
    for p in (lambda j: 3.0 + 0 * j, lambda j: 8.0 - j, lambda j: 40.0 + 6.0 * j + 0.5 * j * j,
              lambda j: 100.0 + 10.0 * j - j * j + 0.25 * j**3,
              lambda j: 400.0 + 40.0 * j - 2.0 * j * j + 0.5 * j**3 + 0.125 * j**4):
        table = _table([p(j) * v for j in range(5)])
        assert len(table) == evolution.ORDER == 5
        got = evolution._extrapolate(base, table, 0.0)
        np.testing.assert_array_equal(got, base + p(5) * v)
    # newest differences 4, 2, 3, 0.5 (times v): the sum stops before the
    # first term whose norm does not fall, here the third
    table = _table([6.5 * v, 3.0 * v, 2.0 * v, 4.0 * v])
    for d, want in zip(table, (4.0, 2.0, 3.0, 0.5)):
        np.testing.assert_array_equal(d, want * v)
    np.testing.assert_array_equal(evolution._extrapolate(base, table, 0.0), base + 6.0 * v)
    # newest differences 4, 2, 1, 0.5 (norms 8.9, 4.5, 2.2, 1.1 against
    # |base| = 2.06): the sum stops after the first term below tol |base|
    table = _table([0.5 * v, 1.0 * v, 2.0 * v, 4.0 * v])
    for tol, want in ((0.0, 7.5), (1.5, 7.0), (3.0, 6.0), (5.0, 4.0)):
        np.testing.assert_array_equal(evolution._extrapolate(base, table, tol), base + want * v)


def test_stage_guesses_leave_the_answer_alone():
    # step_rk4 carries no history from step to step, so it is the reference
    for phi0, n, dt, steps, bound in ((_criterion7_phi0(1), 2.0, 1e-3, 50, 1e-10),
                                      (_bump_2d(), 2.5, 0.05, 20, 1e-12)):
        cfg = _cfg(n_exponent=n, dt=dt, t_end=steps * dt, elliptic_tol=1e-12)
        result = evolve(phi0, cfg)
        assert len(result.report.times) == 1 + steps
        phi = phi0
        for _ in range(steps):
            phi = step_rk4(phi, cfg.dt, cfg)
        gap = np.max(np.abs(result.snapshots[-1][1].values - phi.values))
        assert gap <= bound


@pytest.mark.slow
@pytest.mark.parametrize("seed", [24, 101, 201, 202, 205])
def test_conservation_run_completes_for_failing_seeds(seed):
    # seeds whose criterion-7 run ended in elliptic_failure before CG restarted
    cfg = _cfg(dt=1e-3, t_end=5.0, snapshot_every=250, elliptic_tol=1e-12)
    result = evolve(_criterion7_phi0(seed), cfg)
    rep = result.report
    assert rep.verdict is Verdict.COMPLETED_TO_T_END
    assert np.max(np.abs(rep.mass - rep.mass[0])) <= 1e-10
    _, energies = energy_series(result.snapshots, ConservedEnergyParams(n=2.0))
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) <= 1e-8
