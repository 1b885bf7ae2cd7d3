"""Structure functions, shooting, classification, rescaling and archives."""

from __future__ import annotations

import contextlib
import filecmp
import math
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, OdeSolution, cumulative_trapezoid, quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput, rk_step
from scipy.optimize import brentq

import magma_lab.cli
import magma_lab.profile
from magma_lab import (
    DecayFit,
    DomainTooSmall,
    F1,
    F2,
    F3,
    Indeterminate,
    OrderingViolated,
    ProfileError,
    ProfileParams,
    ProfileSolution,
    ShotClass,
    ShotOutcome,
    ShotSamples,
    TailTooShort,
    TorusGrid,
    decay_check,
    embed_on_torus,
    find_mu_c,
    integrate_shot,
    mu_curve,
    ode_residual,
    q_star,
    read_profile_csv,
    rescale,
    structure_fn,
    structure_report,
    write_profile_csv,
)
from magma_lab.profile import ATOL, FLAT_TOL, RTOL, WIDEN, _Shot

R0 = 1e-6  # the quadratic start Q = 1 + mu r^2/2 of an oracle that does not use the series

EXAMPLE = ProfileParams(d=3.0, n=2.5, c=1.7)
# a shot that is flat at r_max = 60: mu sits in the middle of the window, about
# 260 ulps wide, where |Q_r| and |Q_rr| at 60 stay within FLAT_TOL and the
# growing mode of the tail is not yet larger than the decaying one
_FLAT = ProfileParams(d=3.0, n=2.5, c=1.9, mu=-0.009785371279269562)


@pytest.fixture(scope="module")
def report3():
    return structure_report(EXAMPLE)


@pytest.fixture(scope="module")
def critical3():
    return find_mu_c(EXAMPLE)


@pytest.fixture(scope="module")
def critical2():
    return find_mu_c(ProfileParams(d=2.0, n=2.5, c=1.7))


def test_params_validation():
    with pytest.raises(ValueError):
        ProfileParams(d=0.0, n=2.5, c=1.7)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=1.9, c=1.7)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=3.1, c=1.7)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=2.5, c=1.5)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=2.5, c=2.5)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=2.5, c=1.7, mu=0.1)
    with pytest.raises(ValueError):
        ProfileParams(d=3.0, n=2.5, c=1.7, mu=-math.inf)
    for d in (math.inf, math.nan):  # d = inf made every step NaN, and a shot never ended
        with pytest.raises(ValueError, match="dimension d must be positive and finite"):
            ProfileParams(d=d, n=2.5, c=1.7)


def test_q_star_frozen_digits():
    assert q_star(2.5) == pytest.approx(0.55250896337800284, abs=1e-11)
    assert q_star(3.0) == pytest.approx(0.5861801752930957, abs=1e-11)
    with pytest.raises(ValueError):
        q_star(-1.0)


def test_structure_fn_exact_background_values():
    p = replace(EXAMPLE, mu=-0.02)
    assert F1(1.0, p) == -0.02 * 3.0
    assert F2(1.0, p) == 0.0
    assert F3(1.0, p) == pytest.approx(-0.06, abs=1e-15)
    assert structure_fn(1, 1.0, p) == F1(1.0, p)


def test_structure_fn_domain_and_dispatch():
    p = replace(EXAMPLE, mu=-0.02)
    with pytest.raises(ValueError):
        F1(0.0, p)
    with pytest.raises(ValueError):
        F2(-0.3, p)
    with pytest.raises(ValueError):
        structure_fn(4, 0.5, p)
    with pytest.raises(ValueError):
        F1(0.5, EXAMPLE)  # mu unset
    arr = F2(np.array([0.6, 0.8, 1.0]), p)
    assert arr.shape == (3,)
    assert float(arr[2]) == 0.0
    assert isinstance(F2(0.7, p), float)


def test_g3_at_q_star_frozen():
    # h3 vanishes at Q_star (to the root-finder tolerance) so F3 there is
    # mu-independent up to that slack
    qs = q_star(2.5)
    vals = [F3(qs, replace(EXAMPLE, mu=mu)) for mu in (-0.01, -0.3)]
    for v in vals:
        assert v == pytest.approx(-0.12225132610265413, abs=1e-10)
    assert abs(vals[0] - vals[1]) <= 1e-11


def test_mu_curves_are_roots_of_structure_fns():
    rng = np.random.default_rng(2)
    qs = q_star(EXAMPLE.n)
    for i in (1, 2, 3):
        lo = qs + 1e-6 if i == 3 else 0.05
        for Q in rng.uniform(lo + 1e-3, 0.999, size=40):
            mu = float(mu_curve(i, Q, EXAMPLE))
            if mu >= 0.0:
                continue  # params only admit negative curvatures
            p = replace(EXAMPLE, mu=mu)
            val = structure_fn(i, float(Q), p)
            assert abs(val) <= 1e-12 * max(1.0, abs(mu))


def test_mu_curve_domain_errors():
    with pytest.raises(ValueError):
        mu_curve(1, 1.0, EXAMPLE)
    with pytest.raises(ValueError):
        mu_curve(2, 1.2, EXAMPLE)
    with pytest.raises(ValueError):
        mu_curve(3, 0.5, EXAMPLE)  # below Q_star(2.5)
    with pytest.raises(ValueError):
        mu_curve(0, 0.5, EXAMPLE)


def _mp_minima(p: ProfileParams, rep) -> tuple[float, float, float, float]:
    """(Q2, mu2_min, Q3, mu3_min) at 50 digits from the defining integrals.

    mu_i = -g_i/h_i is stationary where g_i' h_i = g_i h_i'; the roots are
    polished from the report's locations.
    """
    import mpmath as mp

    with mp.workdps(50):
        n, c, d = mp.mpf(p.n), mp.mpf(p.c), mp.mpf(p.d)
        g1 = lambda Q: -(Q ** (1 - n) - 1) / (n - 1) - n / c * mp.log(Q)
        g2 = lambda Q: mp.quad(lambda q: g1(q) * q**n, [1, Q])
        h2 = lambda Q: d * (Q ** (n + 1) - 1) / (n + 1)
        # by parts: int_1^Q F2 q^{-(n+2)} dq = (int_1^Q F1/q dq - F2 Q^{-(n+1)}) / (n+1)
        g3 = lambda Q: g1(Q) - n / (n + 1) * (mp.quad(lambda q: g1(q) / q, [1, Q])
                                              - g2(Q) * Q ** (-n - 1))
        h3 = lambda Q: d - n / (n + 1) * (d * mp.log(Q) - h2(Q) * Q ** (-n - 1))
        s2 = lambda Q: g1(Q) * Q**n * h2(Q) - g2(Q) * d * Q**n
        s3 = lambda Q: ((Q ** -n - n / (c * Q) - n * g2(Q) * Q ** (-n - 2)) * h3(Q)
                        + g3(Q) * n * h2(Q) * Q ** (-n - 2))
        Q2 = mp.findroot(s2, mp.mpf(rep.Q2))
        Q3 = mp.findroot(s3, mp.mpf(rep.Q3))
        return float(Q2), float(-g2(Q2) / h2(Q2)), float(Q3), float(-g3(Q3) / h3(Q3))


def test_structure_report_frozen_digits(report3):
    assert report3.Q1 == pytest.approx(0.77328444663882409, abs=1e-14)
    assert report3.mu1_min == pytest.approx(-0.02145832706274009, abs=1e-13)
    assert report3.Q_star == pytest.approx(0.55250896337800284, abs=1e-11)
    assert report3.mu3_min < report3.mu1_min < report3.mu2_min < 0.0
    assert report3.Q_star < report3.Q3 < 1.0
    assert 0.0 < report3.Q2 < 1.0
    Q2, mu2_min, Q3, mu3_min = _mp_minima(EXAMPLE, report3)
    assert report3.mu2_min == pytest.approx(mu2_min, rel=1e-13)
    assert report3.mu3_min == pytest.approx(mu3_min, rel=1e-13)
    assert report3.Q2 == pytest.approx(Q2, rel=1e-9)
    assert report3.Q3 == pytest.approx(Q3, rel=1e-9)


@st.composite
def _structure_cells(draw):
    """Cells with c uniform on [1.55, n - 0.05], or c = n - 10^-u for u in [1.3, 15]."""
    d = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.0]))
    n = draw(st.floats(min_value=2.0, max_value=3.0))
    if draw(st.booleans()):
        c = 1.55 + draw(st.floats(min_value=0.0, max_value=1.0)) * (n - 0.05 - 1.55)
    else:
        c = n - 10.0 ** -draw(st.floats(min_value=1.3, max_value=15.0))
    return ProfileParams(d=d, n=n, c=c)


@settings(max_examples=100)
@given(_structure_cells())
@example(ProfileParams(d=3.0, n=3.0, c=math.nextafter(3.0, 0.0)))  # Q1 rounds to 1
@example(ProfileParams(d=3.0, n=3.0, c=3.0 - 1e-5))  # the mu_3 root rounds onto Q1
def test_structure_report_ordering_property(p):
    try:
        rep = structure_report(p)
    except OrderingViolated:
        assert p.n - p.c < 1e-3  # only where float64 rounding decides the ordering
        return
    assert rep.mu3_min < rep.mu1_min < rep.mu2_min < 0.0
    assert rep.Q_star < rep.Q2 < rep.Q1 and rep.Q_star < rep.Q3 < rep.Q1
    if p.n - p.c >= 1e-3:  # closer to n rounding decides, so no more is asked there
        for i, q, m in ((2, rep.Q2, rep.mu2_min), (3, rep.Q3, rep.mu3_min)):
            assert min(mu_curve(i, q - 1e-6, p), mu_curve(i, q + 1e-6, p)) >= m


def test_integrate_shot_crossing_and_samples():
    p = replace(EXAMPLE, mu=-0.021)
    outcome, samples = integrate_shot(p)
    assert outcome.classification is ShotClass.CROSSED
    assert outcome.r_star is not None and outcome.r_star > 1.0
    assert samples.r[0] == 0.0
    assert samples.Q[0] == 1.0
    assert samples.Q_r[0] == 0.0
    assert samples.Q_rr[0] == -0.021
    steps = np.diff(samples.r[:-1])
    np.testing.assert_allclose(steps, 0.01, atol=1e-12)
    assert samples.r[-1] == pytest.approx(outcome.r_star)
    assert samples.Q[-1] == pytest.approx(q_star(p.n), abs=1e-9)
    assert np.all(np.diff(samples.Q) < 0.0)
    with pytest.raises(ValueError):
        samples.Q[0] = 2.0  # readonly


def test_extreme_curvatures_end_in_profile_errors():
    # a stage that takes Q below 0 is a rejected step, not a complex number
    out, _ = integrate_shot(replace(EXAMPLE, mu=-5e11), keep_samples=False)
    assert out.classification is ShotClass.CROSSED
    with pytest.raises(ProfileError, match="the series at r = 0 leaves the float range"):
        integrate_shot(replace(EXAMPLE, mu=-1e30))
    with pytest.raises(ProfileError):  # the bracket scales as 1/d
        find_mu_c(ProfileParams(d=1e-300, n=2.5, c=1.7))


@pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 7.0])
def test_series_start_matches_solve_ivp_from_r0(d):
    # the series' (Q, Q_r, Q_rr) at r0, against solve_ivp from the quadratic
    # start at R0 at rtol 1e-13, atol 1e-15, inside find_mu_c's bracket
    rep = structure_report(replace(EXAMPLE, d=d))
    p = replace(EXAMPLE, d=d, mu=0.5 * (rep.mu3_min + rep.mu2_min))
    shot = _Shot(p, 200.0)
    assert 1.0 < shot.r0 < 10.0
    np.testing.assert_allclose(shot.y, _from_the_center(p, shot.r0).y[:, -1], rtol=0.0, atol=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.0]) | st.floats(0.05, 50.0),
    n=st.floats(2.0, 3.0),
    u=st.floats(0.0, 0.99),
    mu=st.floats(1e-6, 0.2).map(lambda m: -m) | st.floats(-30.0, 40.0).map(lambda e: -(10.0**e)),
    r_max=st.sampled_from([0.5, 5.0, 60.0, 200.0]),
)
@example(d=3.0, n=2.5, u=0.15, mu=-1e30, r_max=200.0)  # the series overflows
@example(d=3.0, n=2.5, u=0.15, mu=-1e5, r_max=0.5)
def test_series_start_property(d, n, u, mu, r_max):
    # a shot ends in an outcome or a ProfileError; a start radius, when one is
    # found, lies at most at r_max/20 with no event in [0, r0]
    p = ProfileParams(d=d, n=n, c=1.55 + u * (n - 1.55), mu=mu)
    try:
        assert isinstance(integrate_shot(p, r_max=r_max, keep_samples=False)[0], ShotOutcome)
    except ProfileError:
        pass
    try:
        shot = _Shot(p, r_max)
    except ProfileError:
        return
    assert 0.0 < shot.r0 <= r_max / 20.0
    r_a = 1e-6 * shot.r0  # relative control alone: Q_r can lie far below ATOL
    sol = solve_ivp(_odes(p), (r_a, shot.r0), (1.0 + 0.5 * mu * r_a**2, mu * r_a, mu),
                    method="DOP853", rtol=RTOL, atol=1e-300, events=_events(p))
    assert sol.status == 0 and not (len(sol.t_events[0]) or len(sol.t_events[1]))
    assert shot.y[0] > q_star(n) and shot.y[1] < 0.0


def test_integrate_shot_turning():
    rep = structure_report(EXAMPLE)
    p = replace(EXAMPLE, mu=rep.mu2_min / 2.0)
    outcome, samples = integrate_shot(p)
    assert outcome.classification is ShotClass.TURNED
    assert outcome.subcase in ("convex", "degenerate", "at_floor")
    assert outcome.tau is not None and outcome.tau > 0.0
    assert abs(samples.Q_r[-1]) <= 1e-9


def _assert_alike(got, want, rel):
    """Same class and subcase; r_star, tau and Q_tau within rel."""
    assert got.classification is want.classification
    assert got.subcase == want.subcase
    for field in ("r_star", "tau", "Q_tau"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None)
        if b is not None:
            assert a == pytest.approx(b, rel=rel)


def _odes(p):
    qrrr = magma_lab.profile._stepper(p)[0]

    def odes(r, y):
        Q, Qr, Qrr = y.tolist()
        if not Q > 0.0:  # Q**-n is complex: SciPy rejects the step on its nan error norm
            return (Qr, Qrr, math.nan)
        return (Qr, Qrr, qrrr(float(r), Q, Qr, Qrr))

    return odes


def _events(p):
    """The two terminal events of a shot, as solve_ivp takes them: Q falls to Q_star, Q_r rises to 0."""
    qs = q_star(p.n)

    def floor(r, y):
        return y[0] - qs

    def turn(r, y):
        return y[1]

    floor.terminal = turn.terminal = True
    floor.direction, turn.direction = -1.0, 1.0
    return floor, turn


def _quadratic_start(mu):
    """(R0, (Q, Q_r, Q_rr) there off Q = 1 + mu r^2/2, no first step): solve_ivp picks its own."""
    return R0, (1.0 + 0.5 * mu * R0**2, mu * R0, mu), None


def _series_start(p, r_max):
    """The library's start: (r0, the series' (Q, Q_r, Q_rr) there, the first step)."""
    shot = _Shot(p, r_max)
    return shot.r0, shot.y, shot.h


def _from_the_center(p, r_end):
    """solve_ivp's DOP853 from the quadratic start to r_end at rtol 1e-13, atol 1e-15:
    the oracle of the series start."""
    r, y0, _ = _quadratic_start(p.mu)
    return solve_ivp(_odes(p), (r, r_end), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                     dense_output=True)


class _PredictiveDOP853(DOP853):
    """SciPy's DOP853 with Gustafsson's predictive step-size controller: SciPy's
    RungeKutta._step_impl, except that after an accepted step that follows another
    accepted step the factor is also at most SAFETY (h/h_old)(err_old/err^2)^(1/8),
    with err_old the earlier step's error norm, at least 1e-2 (RADAU5's ERRACC)."""

    h_old = err_old = None

    def _step_impl(self):
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = rk_step(self.fun, t, y, self.f, h, self.A, self.B, self.C, self.K)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(self.K, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            step_rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** self.error_exponent)
            if self.err_old is not None:
                factor = min(factor, SAFETY * h_abs / self.h_old
                             * (self.err_old / error_norm / error_norm) ** -self.error_exponent)
        if step_rejected:
            factor = min(1, factor)
        self.h_old, self.err_old = h_abs, max(error_norm, 1e-2)
        self.h_previous, self.y_old, self.t, self.y = h, y, t_new, y_new
        self.h_abs, self.f = h_abs * factor, f_new
        return True, None


def _scipy_shot(p, r_max, start=None, method=_PredictiveDOP853):
    """The oracle: the same shot by solve_ivp with method, by default DOP853 with the
    library's step-size controller, with the two terminal events, from start, by
    default the library's series start.

    Returns the outcome (classified by the library's rules) and a dense output:
    solve_ivp's, and below the series start _from_the_center's.
    """
    prof = magma_lab.profile
    qs = q_star(p.n)
    r0, y0, h0 = _series_start(p, r_max) if start is None else start
    sol = solve_ivp(_odes(p), (r0, r_max), y0, method=method, first_step=h0,
                    rtol=RTOL, atol=ATOL, events=_events(p), dense_output=True)
    assert sol.status >= 0, sol.message
    (rf, rt), y_turn = sol.t_events, sol.y_events[1]
    if len(rf) or len(rt):
        out = prof._event_outcome(rf[0] if len(rf) else np.inf, rt[0] if len(rt) else np.inf,
                                  y_turn[0] if len(rt) else None, qs)
    else:
        q_tau = prof._tail_limit(p, r_max, sol.y[:, -1])  # None: unsettled, as _Shot._flat
        out = None if q_tau is None else ShotOutcome(ShotClass.FLAT, Q_tau=q_tau)
    center = sol.sol if r0 == R0 else _from_the_center(p, r0).sol

    def dense(r):
        r = np.asarray(r, dtype=float)
        near = r <= r0
        return np.where(near, center(np.where(near, r, r0)), sol.sol(np.where(near, r0, r)))

    return out, dense


def _assert_samples_match(samples, sol):
    """Samples agree with the oracle's dense output on the same radii."""
    got = np.array([samples.Q, samples.Q_r, samples.Q_rr])
    np.testing.assert_allclose(got, sol(samples.r), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "p, r_max, cls",
    [
        (replace(EXAMPLE, mu=-0.021), 200.0, ShotClass.CROSSED),
        (replace(EXAMPLE, mu=structure_report(EXAMPLE).mu2_min / 2.0), 200.0, ShotClass.TURNED),
        (_FLAT, 60.0, ShotClass.FLAT),
    ],
)
def test_classification_shot_matches_sample_shot(p, r_max, cls):
    # both modes take the same steps with the same arithmetic; solve_ivp
    # takes those steps too but rounds differently
    out_cls, none_samples = integrate_shot(p, r_max=r_max, keep_samples=False)
    out_keep, samples = integrate_shot(p, r_max=r_max, keep_samples=True)
    assert none_samples is None
    assert out_cls == out_keep
    assert out_cls.classification is cls
    want, sol = _scipy_shot(p, r_max)
    _assert_alike(out_cls, want, rel=1e-9)
    _assert_samples_match(samples, sol)
    if cls is ShotClass.FLAT:
        assert out_cls.Q_tau == pytest.approx(0.8075378, abs=1e-7)


def test_only_the_final_shot_builds_dense_output(monkeypatch, tmp_path):
    # nothing in the library calls profile.solve_ivp (perfbench's tracing
    # wraps it), and a search keeps the samples of exactly one shot
    def refuse(*args, **kwargs):
        raise AssertionError("profile.solve_ivp was called")

    kept = []
    shoot = magma_lab.profile.integrate_shot

    def recording(p, r_max=200.0, keep_samples=True):
        kept.append(keep_samples)
        return shoot(p, r_max=r_max, keep_samples=keep_samples)

    monkeypatch.setattr(magma_lab.profile, "solve_ivp", refuse)
    monkeypatch.setattr(magma_lab.profile, "integrate_shot", recording)
    find_mu_c(EXAMPLE, bisect_tol=1e-8)
    assert kept.count(True) == 1 and kept[-1] is True
    run, argv = str(tmp_path / "critical"), ["shoot", "--d", "3", "--n", "2.5", "--c", "1.7"]
    assert magma_lab.cli.main(argv + ["--mu", "-0.021"]) == 0
    assert magma_lab.cli.main(argv + ["--bisect-tol", "1e-8", "-o", run]) == 0
    assert magma_lab.cli.main(["embed", "--profile", run, "--n-points", "16,16,16",
                               "--lengths", "240", "-o", str(tmp_path / "embedded")]) == 0


# Shots within 1e-10 of mu_c (found at bisect_tol 1e-12) on both sides in
# three regimes: (d, n, c, mu), r_max, class, subcase, r_star or tau.
_NEAR_CRITICAL = [
    ((1.0, 2.5, 1.7, -0.04232355446215736), 200.0, "CROSSED", None, 31.190430901795825),
    ((1.0, 2.5, 1.7, -0.04232355440215736), 200.0, "CROSSED", None, 32.72261266550344),
    ((1.0, 2.5, 1.7, -0.04232355434215736), 200.0, "TURNED", "convex", 18.816962906459278),
    ((1.0, 2.5, 1.7, -0.04232355428215736), 200.0, "TURNED", "convex", 18.057228751952486),
    ((3.0, 2.5, 1.7, -0.02076750604447499), 200.0, "CROSSED", None, 58.669908377604955),
    ((3.0, 2.5, 1.7, -0.02076750598447499), 200.0, "CROSSED", None, 61.68801752094041),
    ((3.0, 2.5, 1.7, -0.02076750592447499), 200.0, "TURNED", "convex", 31.16982269839193),
    ((3.0, 2.5, 1.7, -0.02076750586447499), 200.0, "TURNED", "convex", 29.751197761481514),
    ((7.0, 2.8, 2.0, -0.005645811857816623), 1600.0, "CROSSED", None, 1279.0683594426837),
    ((7.0, 2.8, 2.0, -0.005645811797816623), 3200.0, "CROSSED", None, 1692.552354783511),
    ((7.0, 2.8, 2.0, -0.0056458117378166235), 1600.0, "TURNED", "degenerate", 827.8525611580061),
    ((7.0, 2.8, 2.0, -0.005645811677816624), 800.0, "TURNED", "degenerate", 626.6300337217652),
]


@pytest.mark.parametrize("params, r_max, cls, subcase, radius", _NEAR_CRITICAL)
def test_near_critical_classification_table(params, r_max, cls, subcase, radius):
    # The pinned radii are solve_ivp's, with SciPy's own DOP853, from the
    # quadratic start at R0.  The library starts from the series at r0 and
    # sizes its steps by the predictive controller instead, and this close
    # to mu_c that moves the radius far more than rounding: solve_ivp itself
    # with RTOL scaled by 1 + 1e-12 moves it by up to 2.5e-6 relative.  So
    # the library is held to the predictive oracle from its own start, which
    # takes the same steps but rounds differently.
    p = ProfileParams(*params)
    want, _ = _scipy_shot(p, r_max, _quadratic_start(p.mu), method="DOP853")
    assert want.classification is ShotClass[cls]
    assert want.subcase == subcase
    assert (want.r_star if cls == "CROSSED" else want.tau) == pytest.approx(radius, rel=1e-8)
    want, _ = _scipy_shot(p, r_max)  # from the library's series start
    for keep in (True, False):
        out, _ = integrate_shot(p, r_max=r_max, keep_samples=keep)
        assert out.classification is ShotClass[cls]
        _assert_alike(out, want, rel=1e-5)


def _restarted(p, r_max):
    """Classify by a fresh shot at each doubling of the radius."""
    while (out := _Shot(p, r_max).classify(r_max)) is None:
        r_max *= 2.0
    return out


@pytest.mark.parametrize("params", [
    (7.0, 2.8, 2.0, -0.005645811857816623),
    (7.0, 2.8, 2.0, -0.005645811797816623),
    (7.0, 2.8, 2.0, -0.0056458117378166235),
])
def test_continued_shot_classifies_like_a_restarted_shot(params):
    # integrate_shot continues an unsettled shot from its last state and step
    p = ProfileParams(*params)
    assert _Shot(p, 200.0).classify(200.0) is None
    _assert_alike(integrate_shot(p, r_max=200.0, keep_samples=False)[0], _restarted(p, 200.0),
                  rel=1e-5)


def _crosses(p, mu, r_max=200.0):
    """Classify as find_mu_c does: an unsettled shot continues up to WIDEN * r_max."""
    shoot = magma_lab.profile.integrate_shot  # as find_mu_c calls it, so it can be counted
    out, _ = shoot(replace(p, mu=mu), r_max=r_max, keep_samples=False)
    return out.classification is ShotClass.CROSSED


def _bisect(p, tol):
    """The upper end of a plain bisection of find_mu_c's starting bracket."""
    rep = structure_report(p)
    lo, hi = rep.mu3_min * (1.0 + 1e-3), rep.mu2_min
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _crosses(p, mid) else (lo, mid)
    return hi


def test_final_shot_continues_past_twice_r_max():
    # a seed-3 shoot_grid cell whose final shot is unsettled at 2*r_max = 400
    # and continues to its turn near 490.8
    p, tol, r_max = ProfileParams(d=7.0, n=2.418502466919782, c=2.3501003871534207), 1e-8, 200.0
    mu_c, sol = find_mu_c(p, bisect_tol=tol, r_max=r_max)
    assert abs(mu_c - _bisect(p, tol)) <= tol
    assert _crosses(p, mu_c - 2.0 * tol) and not _crosses(p, mu_c)
    assert sol.samples.r[-1] > 2.0 * r_max
    assert sol.samples.r[-1] == pytest.approx(490.8, abs=0.1)
    start = _series_start(sol.params, 2.0 * r_max)  # the final shot's
    _assert_samples_match(sol.samples, _scipy_shot(sol.params, 4.0 * r_max, start)[1])


# the first cell of each dimension in seed 3's shoot_grid block: (d, n, c)
_GRID_CELLS = [
    (1.0, 2.804140867529559, 2.2568632005420746),
    (2.0, 2.5467804791848088, 2.459240503933069),
    (3.0, 2.326613686487805, 2.183112924969959),
    (4.0, 2.856182551398692, 2.2831595613642985),
    (7.0, 2.150654061556261, 1.7510869871888626),
]


@pytest.mark.parametrize("params", _GRID_CELLS, ids=lambda c: f"d{c[0]:g}")
def test_search_against_bisection_on_grid_cells(monkeypatch, params):
    p, tol = ProfileParams(*params), 1e-8
    shots = []
    shoot = magma_lab.profile.integrate_shot

    def counting(*args, **kwargs):
        shots.append(None)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(magma_lab.profile, "integrate_shot", counting)
    mu_c, _ = find_mu_c(p, bisect_tol=tol)
    searched = len(shots) - 1  # the final shot keeps its samples
    del shots[:]
    want = _bisect(p, tol)
    bisected = len(shots) + 2  # find_mu_c also checks both ends of the bracket
    assert abs(mu_c - want) <= tol
    assert _crosses(p, mu_c - 2.0 * tol) and not _crosses(p, mu_c)
    if p.d <= 4.0:
        assert searched < bisected


# Synthetic oracles for the search alone: classify(mu) -> (crossed, r_star).
_MU_C, _LO, _HI = -0.0207675059544, -0.05, -0.004
_BISECTIONS = 2 + int(np.ceil(np.log2((_HI - _LO) / 1e-12)))  # with the two end checks


def _run_search(radius, crossed=lambda mu: mu < _MU_C, tol=1e-12):
    calls = []

    def classify(mu):
        calls.append(mu)
        hit = crossed(mu)
        return hit, radius(mu) if hit else None

    lo, hi = magma_lab.profile._search(classify, _LO, _HI, tol)
    assert crossed(lo) and not crossed(hi)
    assert 0.0 < hi - lo <= tol
    return lo, hi, len(calls)


@pytest.mark.parametrize("radius", [
    lambda mu: 3.0 - np.log(_MU_C - mu) / 0.4,  # ln(mu_c - mu) linear in r
    lambda mu: np.exp(2.0 - np.log(_MU_C - mu) / 3.0),  # ... and in ln r
], ids=["exponential", "power"])
def test_search_converges_fast_on_exact_departure(radius):
    lo, hi, shots = _run_search(radius)
    assert lo < _MU_C <= hi
    assert shots <= _BISECTIONS // 2


def test_search_keeps_the_bisection_bound_on_adversarial_radii():
    bound = 3 * (_BISECTIONS - 2) + 2
    rngs = [np.random.default_rng(seed) for seed in range(5)]
    for radius in [lambda mu, rng=rng: rng.uniform(1.0, 100.0) for rng in rngs] + [lambda mu: 50.0]:
        assert _run_search(radius)[2] <= bound
    # radii that grow geometrically with every crossing shot make each fit
    # put mu_c just above lo; unguarded, the search creeps up by tol a shot
    for base in (2.0, 3.0):
        growing = iter(base**k for k in range(1000))
        assert _BISECTIONS < _run_search(lambda mu: next(growing))[2] <= bound


def test_search_bracket_holds_when_classification_is_not_monotone():
    # within 1e-10 of mu_c the class flips with the last bits of mu, as a
    # classification at the rounding floor does; each shot still moves the
    # end of its own class, so lo crosses and hi does not
    def crossed(mu):
        if abs(mu - _MU_C) < 1e-10:
            return bool(int(np.float64(mu).view(np.int64)) >> 3 & 1)
        return mu < _MU_C

    for radius in (lambda mu: 3.0 - np.log(abs(_MU_C - mu)) / 0.4, lambda mu: 50.0):
        for tol in (1e-12, 1e-14):
            lo, hi, _ = _run_search(radius, crossed, tol)
            assert abs(hi - _MU_C) < 1e-10


def test_stepper_takes_the_predictive_oracles_steps():
    # From the same start and first step, the same error norm as SciPy's
    # DOP853 and the same predictive controller as the oracle: the same
    # steps are accepted and rejected.
    p = replace(EXAMPLE, mu=-0.021)
    qrrr = magma_lab.profile._stepper(p)[0]
    ours = _Shot(p, 200.0)
    ref = _PredictiveDOP853(lambda r, y: (y[1], y[2], qrrr(r, *y)), ours.r0, ours.y, 200.0,
                            rtol=RTOL, atol=ATOL, first_step=ours.h)
    for _ in range(80):
        ours.step(200.0)
        ref.step()
        assert ours.nfev == ref.nfev
    assert ours.r == pytest.approx(ref.t, rel=1e-3)


@pytest.mark.parametrize("below, nfev, rejected", [(1e-6, 640, 3), (1e-8, 748, 3)])
def test_predictive_controller_rejects_few_steps_near_mu_c(critical3, below, nfev, rejected):
    # a shot just below mu_c leaves the critical profile with derivatives that
    # grow about e-fold per unit r; SciPy's controller rejected 14 of 62 and
    # 15 of 71 attempts on these two shots (748 and 856 RHS calls)
    shot = _Shot(replace(EXAMPLE, mu=critical3[0] - below), 200.0)
    assert shot.classify(200.0).classification is ShotClass.CROSSED
    assert (shot.nfev, shot.rejected) == (nfev, rejected)


def test_a_widened_shot_keeps_its_step_size_controller():
    # stopped at one of its own step ends and classified again on twice that
    # radius, a shot takes the steps of the same shot run straight through: it
    # keeps h, h_old and err_old
    p = replace(EXAMPLE, mu=-0.021)
    whole, ends = _Shot(p, 200.0), []
    step = whole.step

    def recording(r_bound):
        step(r_bound)
        ends.append((whole.r, whole.rejected, whole.h / whole.h_old, whole.err_old))

    whole.step = recording
    want = whole.classify(200.0)
    (_, before, _, _), (r_stop, after, _, _), (_, _, grow, err) = ends[12:15]
    assert before == after  # no attempt of the step to r_stop was rejected
    assert grow < 0.9 * err ** -0.125  # the prediction sizes the step after that
    assert whole.r < 2.0 * r_stop  # the doubled radius clips no step
    shot = _Shot(p, 200.0)
    assert shot.classify(r_stop) is None
    assert shot.r == r_stop and shot.err_old >= 1e-2
    assert shot.classify(2.0 * r_stop) == want
    assert (shot.nfev, shot.rejected) == (whole.nfev, whole.rejected)
    assert _bits((shot.r, *shot.y)) == _bits((whole.r, *whole.y))


def test_dop853_tableau_from_scipy():
    # the stepper reads SciPy's private tableau; pin what it relies on
    t = dop853_coefficients
    assert (t.N_STAGES, t.N_STAGES_EXTENDED, t.INTERPOLATOR_POWER) == (12, 16, 7)
    assert t.A.shape == (16, 16) and t.C.shape == (16,) and t.B.shape == (12,)
    assert t.E3.shape == t.E5.shape == (13,) and t.D.shape == (4, 16)
    assert np.all(np.triu(t.A) == 0.0)
    for s in range(16):
        assert t.C[s] == pytest.approx(t.A[s, :s].sum(), abs=1e-14)
    assert np.array_equal(t.A[12, :12], t.B)  # stage 12 is the step's end
    assert t.B.sum() == pytest.approx(1.0, abs=1e-14)
    assert t.E5.sum() == pytest.approx(0.0, abs=1e-14)
    assert t.E3.sum() == pytest.approx(0.0, abs=1e-14)
    # the first _Shot binds the stepper's (j, a_j) tables; they rebuild the
    # tableau exactly and hold no zero weight
    _Shot(replace(EXAMPLE, mu=-0.021), 200.0)
    prof = magma_lab.profile
    A, E = np.zeros_like(t.A), np.zeros((2, 13))
    for s, row in enumerate(prof._A):
        for j, a in row:
            assert j < s and a != 0.0
            A[s, j] = a
    for j, e5, e3 in prof._E:
        assert (e5, e3) != (0.0, 0.0)
        E[:, j] = e5, e3
    assert len(prof._A) == 16 and prof._END == t.N_STAGES and prof._D is t.D
    assert np.array_equal(A, t.A) and prof._C == t.C.tolist()
    assert np.array_equal(E, np.vstack((t.E5, t.E3)))



def _bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


def _hand_rhs(p):
    """Q_rrr written out by hand: the reference of the generated right-hand side."""
    n, noc, dm1 = p.n, p.n / p.c, p.d - 1.0

    def qrrr(r, Q, Qr, Qrr):
        qinv = 1.0 / Q
        return (Qr * Q**-n - noc * Qr * qinv - n * Qr * Qrr * qinv
                - dm1 * (Qrr / r - Qr / (r * r)))

    return qrrr


def _loop_stages(qrrr, stages, r, Q, Qr, Qrr, h, U, V, W) -> float:
    """Stages of a step of h from r as loops over the (j, a_j) pairs: the
    reference of the generated straight-line step.  Returns Q at the last."""
    prof = magma_lab.profile
    for s in stages:
        su = sv = sw = 0.0
        for j, a in prof._A[s]:
            su += a * U[j]
            sv += a * V[j]
            sw += a * W[j]
        q = Q + h * su
        U[s] = qr = Qr + h * sv
        V[s] = qrr = Qrr + h * sw
        W[s] = qrrr(r + prof._C[s] * h, q, qr, qrr)
    return q


def _loop_error(y, y_new, h, U, V, W) -> float:
    """SciPy's DOP853 error norm as a loop over the (j, e5_j, e3_j) weights."""
    sq, sr, srr = (ATOL + max(abs(a), abs(b)) * RTOL for a, b in zip(y, y_new))
    e5q = e5r = e5rr = e3q = e3r = e3rr = 0.0
    for j, e5, e3 in magma_lab.profile._E:
        e5q += e5 * U[j]
        e5r += e5 * V[j]
        e5rr += e5 * W[j]
        e3q += e3 * U[j]
        e3r += e3 * V[j]
        e3rr += e3 * W[j]
    n5 = (e5q / sq) ** 2 + (e5r / sr) ** 2 + (e5rr / srr) ** 2
    n3 = (e3q / sq) ** 2 + (e3r / sr) ** 2 + (e3rr / srr) ** 2
    return 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 3.0)


@pytest.mark.parametrize("d, mu", [(1.0, -0.05), (3.0, -0.021), (7.0, -0.021)])
def test_generated_step_is_the_pair_loops_to_the_bit(d, mu):
    # every attempt, accepted or rejected, and every interpolant extension of
    # a shot: the same stages, end state and error norm, bit for bit
    p = replace(EXAMPLE, d=d, mu=mu)
    shot, qrrr, end = _Shot(p, 200.0), _hand_rhs(p), magma_lab.profile._END
    trial, extend = shot.trial, shot.extend
    counts = {"accepted": 0, "rejected": 0, "extended": 0}

    def checked_trial(r, Q, Qr, Qrr, w, h, U, V, W):
        y_new, err = trial(r, Q, Qr, Qrr, w, h, U, V, W)
        U2, V2, W2 = ([x] + [0.0] * end for x in (Qr, Qrr, w))
        want = (_loop_stages(qrrr, range(1, end + 1), r, Q, Qr, Qrr, h, U2, V2, W2),
                U2[end], V2[end])
        assert _bits(y_new) == _bits(want)
        assert _bits(U[:end + 1] + V[:end + 1] + W[:end + 1]) == _bits(U2 + V2 + W2)
        assert _bits([err]) == _bits([_loop_error((Q, Qr, Qrr), want, h, U2, V2, W2)])
        counts["accepted" if err < 1.0 else "rejected"] += 1
        return y_new, err

    def checked_extend(r, Q, Qr, Qrr, h, U, V, W):
        U2, V2, W2 = list(U), list(V), list(W)
        extend(r, Q, Qr, Qrr, h, U, V, W)
        _loop_stages(qrrr, range(end + 1, len(U)), r, Q, Qr, Qrr, h, U2, V2, W2)
        assert _bits(U + V + W) == _bits(U2 + V2 + W2)
        counts["extended"] += 1

    shot.trial, shot.extend = checked_trial, checked_extend
    with contextlib.suppress(Indeterminate):
        shot.classify(50.0)
    assert min(counts.values()) > 0, counts
    assert _bits([shot.qrrr(1.5, 0.9, -0.01, 0.002)]) == _bits([qrrr(1.5, 0.9, -0.01, 0.002)])


def _scipy_steps(shot) -> list:
    """The oracle: SciPy's Dop853DenseOutput of every step a sampling shot kept."""
    return [Dop853DenseOutput(r_old, r, np.array(y_old), F) for r_old, r, y_old, F in shot.steps]


def test_float_interpolant_reads_scipys_dense_output_to_the_bit():
    # at eleven radii from 1.6 to 16 and at the floor event, the interpolant
    # on floats reads what SciPy's Dop853DenseOutput reads off the same step
    shot = _Shot(replace(EXAMPLE, mu=-0.021), 200.0, keep_samples=True)
    readers, dense = [], shot.dense
    shot.dense = lambda: readers.append(dense()) or readers[-1]
    assert shot.classify(200.0).classification is ShotClass.CROSSED
    steps = _scipy_steps(shot)
    ends = [step.t for step in steps]
    radii = np.linspace(1.6, 16.0, 9).tolist() + [4.0, 8.0, shot.r]
    assert len(radii) == 12 and shot.r > 16.0
    for r in radii:
        i = bisect_left(ends, r)
        assert _bits(readers[i](r)) == _bits(steps[i](r)), r
    assert _bits(shot.y) == _bits(steps[-1](shot.r))


def _horner(shot, r):
    """(Q, Q_r, Q_rr) at r by Horner's rule on the series coefficients of the shot."""
    Q, P, S = (np.polynomial.polynomial.polyval(r * r, shot.series[:, i]) for i in range(3))
    return np.array([Q, r * P, S])


def _assert_samples_are_scipys(shot):
    """Samples past r0 bit for bit as OdeSolution reads them off the kept steps, and up
    to r0 as Horner's rule reads the series, to rounding."""
    s = shot.samples()
    steps = _scipy_steps(shot)
    interior = s.r[1:-1]
    near = interior <= shot.r0
    got = np.array([s.Q, s.Q_r, s.Q_rr])[:, 1:-1]
    want = OdeSolution([shot.r0] + [step.t for step in steps], steps)(interior[~near])
    assert got[:, ~near].tobytes() == want.tobytes()
    assert near.any()
    np.testing.assert_allclose(got[:, near], _horner(shot, interior[near]), rtol=1e-14, atol=1e-16)
    assert _bits(s.r[[0, -1]]) == _bits([0.0, shot.r])
    assert _bits(np.array([s.Q, s.Q_r, s.Q_rr])[:, 0]) == _bits([1.0, 0.0, shot.mu])
    assert _bits(np.array([s.Q, s.Q_r, s.Q_rr])[:, -1]) == _bits(shot.y)


def test_samples_are_odesolutions_to_the_bit():
    # a shot stopped at a sample radius and then continued, so that one radius
    # is a step end (OdeSolution reads it off the earlier step) and the last
    # step is cut short by the floor event
    p = replace(EXAMPLE, mu=-0.021)
    grid = np.arange(magma_lab.profile.DR_SAMPLE, 10.0, magma_lab.profile.DR_SAMPLE)
    r_stop = float(grid[299])
    shot = _Shot(p, r_stop, keep_samples=True)
    assert shot.classify(r_stop) is None
    assert shot.classify(WIDEN * r_stop).classification is ShotClass.CROSSED
    assert r_stop in shot.samples().r
    assert shot.r < shot.steps[-1][1]  # the event cut the last step short
    _assert_samples_are_scipys(shot)
    # the two steps at r_stop agree there to the bit; move the later one's
    # start by an ulp so that reading r_stop off the wrong step shows
    [j] = [j for j, (r_old, _, _, _) in enumerate(shot.steps) if r_old == r_stop]
    r_old, r, y_old, F = shot.steps[j]
    shot.steps[j] = (r_old, r, tuple(np.nextafter(y_old, np.inf)), F)
    _assert_samples_are_scipys(shot)
    # a turning shot and a flat one
    for q, r_max in ((replace(EXAMPLE, mu=structure_report(EXAMPLE).mu2_min / 2.0), 200.0),
                     (_FLAT, 60.0)):
        shot = _Shot(q, r_max, keep_samples=True)
        shot.classify(r_max)
        _assert_samples_are_scipys(shot)


def test_samples_of_a_shot_with_no_interior_radius():
    # mu = -1e5 crosses the floor before the first sample radius
    shot = _Shot(replace(EXAMPLE, mu=-1e5), 200.0, keep_samples=True)
    assert shot.classify(200.0).classification is ShotClass.CROSSED
    s = shot.samples()
    assert shot.r < magma_lab.profile.DR_SAMPLE
    assert _bits(s.r) == _bits([0.0, shot.r])
    assert _bits(np.array([s.Q, s.Q_r, s.Q_rr])[:, -1]) == _bits(shot.y)
    assert _bits(np.array([s.Q, s.Q_r, s.Q_rr])[:, 0]) == _bits([1.0, 0.0, -1e5])


def _gathered_samples(shot) -> np.ndarray:
    """The oracle of samples(): rows (r, Q, Q_r, Q_rr), those past r0 read by one _dense
    pass over per-sample gathers F[k, i] of shape (samples, 3)."""
    prof = magma_lab.profile
    interior = np.arange(prof.DR_SAMPLE, shot.r, prof.DR_SAMPLE)
    if len(interior) and shot.r - interior[-1] < 1e-9:
        interior = interior[:-1]
    near, far = np.split(interior, [np.searchsorted(interior, shot.r0, side="right")])
    blocks = [(1.0, 0.0, shot.mu), prof._series_at(shot.series, near)[:, :3]]
    if len(far):
        r_old, r_end, y_old, F = map(np.array, zip(*shot.steps))
        k = np.searchsorted(r_end, far)
        rows = (F[k, i] for i in reversed(range(F.shape[1])))
        blocks.append(prof._dense(far[:, None], r_old[k, None], r_end[k, None], y_old[k], rows))
    r = np.concatenate(([0.0], interior, [shot.r]))
    return np.vstack((r, np.vstack(blocks + [shot.y]).T))


def _final_shot(monkeypatch, p, r_max=200.0):
    """The sampling shot of find_mu_c(p) at bisect_tol 1e-8."""
    kept = []

    class Recording(_Shot):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    monkeypatch.setattr(magma_lab.profile, "_Shot", Recording)
    find_mu_c(p, bisect_tol=1e-8, r_max=r_max)
    [shot] = [s for s in kept if s.steps is not None]
    return shot


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d7", "widened", "event-cut"])
def test_samples_read_one_component_at_a_time_as_the_gathers_did(monkeypatch, case):
    # samples() repeats each step's coefficients over its run of samples and
    # reads one component at a time: the per-sample gathers' numbers, to the bit
    if case == "event-cut":
        shot = _Shot(replace(EXAMPLE, mu=-0.021), 200.0, keep_samples=True)
        assert shot.classify(200.0).classification is ShotClass.CROSSED
        assert shot.r < shot.steps[-1][1]
    elif case == "widened":
        shot = _final_shot(monkeypatch, EXAMPLE, r_max=8.0)
        assert shot.r > 16.0
    else:
        shot = _final_shot(monkeypatch, replace(EXAMPLE, d=float(case[1:])))
    s = shot.samples()
    got = np.array([s.r, s.Q, s.Q_r, s.Q_rr])
    assert got.shape[1] > 1000
    assert got.tobytes() == _gathered_samples(shot).tobytes()


def test_a_shot_that_ends_in_an_event_builds_one_interpolant():
    # a classification shot extends only the step of its event
    shot = _Shot(replace(EXAMPLE, mu=-0.021), 20.0)
    calls, extend = [], shot.extend
    shot.extend = lambda *args: calls.append(args[0]) or extend(*args)
    assert shot.classify(20.0).classification is ShotClass.CROSSED
    assert shot.r > 2.0 and calls == [shot.r_old]


def _probe_flat(shot) -> bool:
    """The flat test as it read a shot's interpolants at probe radii: the reference of
    the end-state test.  |Q_r| and |Q_rr| at the end within FLAT_TOL, Q above Q_star,
    and |Q_rr| on nine radii from r/10 to r at most its value at r/10 plus 10 FLAT_TOL,
    each read off the kept step whose end first reaches it."""
    Q, Qr, Qrr = shot.y
    tail = np.linspace(shot.r / 10.0, shot.r, 9)
    r_old, r_end, y_old, F = map(np.array, zip(*shot.steps))
    k = np.searchsorted(r_end, tail)
    rows = (F[k, i] for i in reversed(range(F.shape[1])))
    curv = np.abs(magma_lab.profile._dense(tail[:, None], r_old[k, None], r_end[k, None],
                                           y_old[k], rows)[:, 2])
    return (abs(Qr) <= FLAT_TOL and abs(Qrr) <= FLAT_TOL and Q > shot.qs
            and curv.max() <= curv[0] + 10 * FLAT_TOL)


def _end_state(p, r_max):
    """A sampling shot of p run to r_max, and whether it ended flat there (None: an event)."""
    shot = _Shot(p, r_max, keep_samples=True)
    out = shot.classify(r_max)
    flat = out is not None and out.classification is ShotClass.FLAT
    return shot, (flat if shot.r == r_max else None)


# knife edges with a flat window at 60: (params at the middle of the window, r_max)
_EDGES = [(_FLAT, 60.0), (ProfileParams(d=4.0, n=2.5, c=1.7, mu=-0.015999713301505812), 60.0)]


@settings(max_examples=40)
@given(edge=st.sampled_from(_EDGES), ulps=st.integers(-400, 400), stretch=st.floats(0.9, 1.1))
@example(edge=_EDGES[0], ulps=0, stretch=1.0)
@example(edge=_EDGES[1], ulps=0, stretch=1.0)
def test_end_state_flat_test_never_passes_a_shot_the_probes_see_departing(edge, ulps, stretch):
    # random shots around knife edges, each run to a radius without an event:
    # a shot the end-state test calls flat is flat to the probe test too
    p, r_max = edge
    shot, flat = _end_state(replace(p, mu=p.mu + ulps * np.spacing(abs(p.mu))), r_max * stretch)
    if ulps == 0 and stretch == 1.0:  # each edge, unperturbed, ends flat at its radius
        assert flat
    if flat:
        assert _probe_flat(shot)


def test_flat_test_turns_away_a_departing_shot():
    # 135 ulps above _FLAT, just past the window, the growing mode at 60
    # already outweighs the decaying one: the probes call the end flat, the
    # end state does not, and the shot continued from there turns within a
    # few units of r
    p = replace(_FLAT, mu=_FLAT.mu + 135 * np.spacing(abs(_FLAT.mu)))
    for q, flat in ((_FLAT, True), (p, False)):
        shot, got = _end_state(q, 60.0)
        assert got is flat and _probe_flat(shot)
    assert shot.classify(64.0).classification is ShotClass.TURNED


def test_integrate_shot_requires_mu_and_sane_radius():
    with pytest.raises(ValueError):
        integrate_shot(EXAMPLE)
    for r_max in (np.nan, np.inf, 0.0, -5.0):
        with pytest.raises(ValueError):
            integrate_shot(replace(EXAMPLE, mu=-0.021), r_max=r_max)


def test_radius_whose_widening_cap_overflows_is_refused(monkeypatch):
    # integrate_shot widens a shot up to WIDEN * r_max, which must be finite;
    # find_mu_c's final shot starts at 2 * r_max, so a search refuses up front
    # an r_max whose WIDEN * 2 * r_max overflows
    out, _ = integrate_shot(replace(EXAMPLE, mu=-0.021), r_max=5e306, keep_samples=False)
    assert out.classification is ShotClass.CROSSED

    def refuse(*args, **kwargs):
        raise AssertionError("a shot ran")

    monkeypatch.setattr(magma_lab.profile, "_Shot", refuse)
    with pytest.raises(ValueError, match="r_max"):
        integrate_shot(replace(EXAMPLE, mu=-0.021), r_max=1e307)
    for r_max in (3e306, 1e307):
        with pytest.raises(ValueError, match="r_max"):
            find_mu_c(EXAMPLE, r_max=r_max)
    for bisect_tol in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="bisect_tol"):
            find_mu_c(EXAMPLE, bisect_tol=bisect_tol)


def test_classification_stable_under_tighter_rtol(monkeypatch):
    p = replace(EXAMPLE, mu=-0.021)
    out_a, _ = integrate_shot(p, keep_samples=False)
    monkeypatch.setattr(magma_lab.profile, "RTOL", 5e-11)
    out_b, _ = integrate_shot(p, keep_samples=False)
    assert out_a.classification is out_b.classification is ShotClass.CROSSED
    assert out_a.r_star == pytest.approx(out_b.r_star, abs=1e-5)


def test_indeterminate_when_radius_too_small(critical3):
    mu_c, _ = critical3
    # the critical shot turns near r = 36, past 32 * 0.5
    with pytest.raises(Indeterminate, match="no event fired by r_max=16.0"):
        integrate_shot(replace(EXAMPLE, mu=mu_c), r_max=0.5)


def test_find_mu_c_example_regime(critical3, report3):
    mu_c, sol = critical3
    assert report3.mu3_min < mu_c <= report3.mu2_min
    assert -0.021 < mu_c < 0.0
    assert mu_c == pytest.approx(-0.020767505954475025, abs=1e-8)
    assert sol.params.mu == mu_c
    assert report3.Q_star < sol.Q_tau < report3.Q1
    assert sol.Q_tau == pytest.approx(0.7375896882, abs=1e-4)
    assert float(sol.samples.Q_r.max()) <= 1e-12
    assert np.all(np.diff(sol.samples.Q) <= 1e-12)


def test_ode_residual_small_on_shots(critical3):
    _, sol = critical3
    res = ode_residual(sol.samples, sol.params)
    assert np.max(np.abs(res)) <= 1e-7
    p = replace(EXAMPLE, mu=-0.021)
    _, samples = integrate_shot(p)
    assert np.max(np.abs(ode_residual(samples, p))) <= 1e-7


def qr2_identity_gap(samples: ShotSamples, p: ProfileParams) -> float:
    """Max gap in the slope-energy identity along a shot.

    0.5 Q^n Q_r^2 must equal F2(Q, mu) minus the quadrature of
    [ (n/2) int Q_r^2/q^2 dq + (d-1) Q_r/r ] Q^n dQ along the trajectory.
    """
    r, Q, Qr = samples.r, samples.Q, samples.Q_r
    inner = cumulative_trapezoid(Qr**3 / Q**2, r, initial=0.0)
    qr_over_r = magma_lab.profile._qr_over_r(samples)
    correction = cumulative_trapezoid(
        ((p.n / 2.0) * inner + (p.d - 1.0) * qr_over_r) * Q**p.n * Qr, r, initial=0.0,
    )
    lhs = 0.5 * Q**p.n * Qr**2
    rhs = F2(Q, p) - correction
    return float(np.max(np.abs(lhs - rhs)))


def test_qr2_identity_gap_small(critical3):
    _, sol = critical3
    assert qr2_identity_gap(sol.samples, sol.params) <= 1e-6
    p = ProfileParams(d=1.0, n=2.5, c=1.7, mu=-0.021)
    _, samples = integrate_shot(p)
    assert qr2_identity_gap(samples, p) <= 1e-6


def test_d1_first_integrals():
    # planar case: Q^n Q_rr = (Q-1) - (Q^n-1)/c + mu, and the slope energy
    # 0.5 Q_r^2 equals the quadrature of that right side against q^{-n} dq
    p = ProfileParams(d=1.0, n=2.5, c=1.7, mu=-0.021)
    _, s = integrate_shot(p)
    G = (s.Q - 1.0) - (s.Q**p.n - 1.0) / p.c + p.mu
    gap1 = np.max(np.abs(s.Q**p.n * s.Q_rr - G))
    assert gap1 <= 1e-10

    def integrand(q):
        return ((q - 1.0) - (q**p.n - 1.0) / p.c + p.mu) * q**-p.n

    idx = np.linspace(0, len(s.r) - 1, 25, dtype=int)
    for i in idx:
        want, _ = quad(integrand, 1.0, s.Q[i], epsabs=1e-14, epsrel=1e-13)
        assert 0.5 * s.Q_r[i] ** 2 == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("c", [1.6, 1.7, 2.0, 2.4])
def test_limit_satisfies_the_first_integral_in_1d(c):
    # in d = 1 the limit of the critical shot solves 1 - Q + (Q^n - 1)/c - mu_c = 0
    # (the first integral at Q_rr = 0), on the branch below Q1 = (c/n)^{1/(n-1)};
    # an Aitken limit over r/4, r/2, r misses it by 2e-5 to 4e-5 at these c (it
    # is exact only for power-law tails), the linearised tail by about 1e-10
    p = ProfileParams(d=1.0, n=2.5, c=c)
    mu_c, sol = find_mu_c(p, bisect_tol=1e-12)
    q1 = (p.c / p.n) ** (1.0 / (p.n - 1.0))
    exact = brentq(lambda q: 1.0 - q + (q**p.n - 1.0) / p.c - mu_c, 0.3, q1, xtol=1e-15)
    assert sol.Q_tau == pytest.approx(exact, abs=1e-6)


def test_critical_tail_past_d4_reads_q1():
    # for d > 4 the critical tail is algebraic, Q1 + A/r^2, so its limit is Q1
    # itself and c_bar = Q1^(1-n) c is n; the tail has no exponential fit
    p = ProfileParams(d=7.0, n=2.150654061556261, c=1.7510869871888626)  # a shoot_grid cell
    _, sol = find_mu_c(p, bisect_tol=1e-8)
    assert sol.Q_tau == magma_lab.profile._q1(p)
    assert rescale(sol, 1.0 / sol.Q_tau).scaling.c_bar == pytest.approx(p.n, rel=1e-15)
    assert sol.decay is None


def test_algebraic_tail_follows_a_over_r_squared():
    # Delta_r q = L'(Q1) q^2/2 near Q1 is solved by q = A/r^2 with
    # A = 4(d-4) c Q1^2/(n(n-1)); a 1e-12 final shot on 2 r_max = 2000 is flat
    p = ProfileParams(d=7.0, n=2.5, c=1.7)
    _, sol = find_mu_c(p, bisect_tol=1e-12, r_max=1000.0)
    q1 = magma_lab.profile._q1(p)
    A = 4.0 * (p.d - 4.0) * p.c * q1**2 / (p.n * (p.n - 1.0))
    r = 1000.0
    assert sol.Q_tau == q1 and sol.samples.r[-1] > r
    assert (float(magma_lab.profile._hermite(sol.samples, r)) - q1) * r**2 / A == pytest.approx(
        1.0, rel=0.15)


def test_slow_exponential_tail_past_d4_reads_its_limit_or_names_bisect_tol():
    # at d = 6 this cell's tail is exponential, with its limit about 9.9e-5
    # below Q1; at 1e-8 its final shot turns before the tail can be read
    p = ProfileParams(d=6.0, n=2.261, c=2.031)
    _, sol = find_mu_c(p, bisect_tol=1e-10)
    s = sol.samples
    assert sol.Q_tau == magma_lab.profile._tail_limit(p, s.r[-1], (s.Q[-1], s.Q_r[-1], s.Q_rr[-1]))
    assert magma_lab.profile._q1(p) - sol.Q_tau == pytest.approx(9.93e-5, abs=1e-7)
    assert sol.decay is not None
    with pytest.raises(ProfileError, match=r"lower bisect_tol=1e-08"):
        find_mu_c(p, bisect_tol=1e-8)


def test_decay_check_fit_and_none(critical3):
    _, sol = critical3
    fit = sol.decay
    assert fit is not None
    want_L = sol.Q_tau ** (-sol.params.n) - sol.params.n / (sol.params.c * sol.Q_tau)
    L = magma_lab.profile._decay_rate(sol.params, sol.Q_tau)
    assert L == pytest.approx(want_L, rel=1e-12)
    assert fit.k == math.sqrt(L) > 0.0
    # M is the geometric mean of (Q - Q_tau) exp(k r) over the fit window
    delta = sol.samples.Q - sol.Q_tau
    window = (delta > 1e-6) & (delta < 1e-2)
    assert window.sum() >= 20
    envelope = delta[window] * np.exp(fit.k * sol.samples.r[window])
    assert envelope.min() <= fit.M <= envelope.max()
    # Q_tau at or above (c/n)^{1/(n-1)} is a valid no-decay outcome
    assert decay_check(replace(sol, decay=None, Q_tau=0.99)) is None


def test_decay_check_tail_too_short(critical3):
    _, sol = critical3
    keep = sol.samples.r <= 3.0
    short = ShotSamples(
        r=sol.samples.r[keep],
        Q=sol.samples.Q[keep],
        Q_r=sol.samples.Q_r[keep],
        Q_rr=sol.samples.Q_rr[keep],
    )
    with pytest.raises(TailTooShort):
        decay_check(replace(sol, samples=short, decay=None))


def test_rescale_round_trip(critical3):
    _, sol = critical3
    q0 = 1.0 / sol.Q_tau
    scaled = rescale(sol, q0)
    n, c = sol.params.n, sol.params.c
    assert scaled.scaling.c_bar == pytest.approx(q0 ** (n - 1.0) * c, rel=1e-14)
    assert scaled.scaling.r_scale == pytest.approx(q0 ** (n / 2.0), rel=1e-14)
    assert scaled.scaling.mu_bar == pytest.approx(
        q0 ** (1.0 - n) * sol.params.mu, rel=1e-14
    )
    np.testing.assert_allclose(scaled.Q, q0 * sol.samples.Q, rtol=1e-15)
    back_r = scaled.r / scaled.scaling.r_scale
    np.testing.assert_allclose(back_r, sol.samples.r, rtol=1e-14, atol=1e-16)
    ident = rescale(sol, 1.0)
    np.testing.assert_array_equal(ident.Q, sol.samples.Q)
    with pytest.raises(ValueError):
        rescale(sol, -1.0)
    # decay criterion Q_tau < Q1 is the same statement as c_bar > n
    assert (scaled.scaling.c_bar > n) == (sol.Q_tau < (c / n) ** (1.0 / (n - 1.0)))


def test_embed_on_torus_properties(critical2):
    _, sol = critical2
    q0 = 1.0 / sol.Q_tau
    grid = TorusGrid((96, 96), (160.0, 160.0))
    phi = embed_on_torus(sol, grid)
    center_idx = (48, 48)
    assert phi.values[center_idx] == pytest.approx(q0, rel=1e-12)
    assert phi.values.min() >= 1.0 - 1e-12
    assert phi.values.max() == pytest.approx(q0, rel=1e-12)
    corner = phi.values[0, 0]
    assert corner == pytest.approx(1.0, abs=1e-8)
    shifted = embed_on_torus(sol, grid, center=(40.0, 80.0))
    peak = np.unravel_index(np.argmax(shifted.values), grid.shape)
    assert grid.axis_coordinates(0)[peak[0]] == pytest.approx(40.0, abs=2.0)
    assert grid.axis_coordinates(1)[peak[1]] == pytest.approx(80.0, abs=2.0)


def test_embed_errors(critical2):
    _, sol = critical2
    with pytest.raises(DomainTooSmall):
        embed_on_torus(sol, TorusGrid((64, 64), (60.0, 60.0)))
    with pytest.raises(ValueError):
        embed_on_torus(sol, TorusGrid((16, 16, 16), (160.0,) * 3))
    with pytest.raises(ValueError):
        embed_on_torus(sol, TorusGrid((96, 96), (160.0, 160.0)), center=(1.0,))


@pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 7.0])
def test_hermite_reads_the_final_shot_between_samples(d):
    # the quintic Hermite of the stored (Q, Q_r, Q_rr) against the final
    # shot's own DOP853 interpolants midway between samples
    _, sol = find_mu_c(ProfileParams(d=d, n=2.5, c=1.7), bisect_tol=1e-8)
    shot, r = _Shot(sol.params, 400.0, keep_samples=True), 400.0  # find_mu_c's final shot, again
    while shot.classify(r) is None:  # widened as integrate_shot widens it
        r *= 2.0
    s = shot.samples()
    assert _bits(s.r) == _bits(sol.samples.r) and _bits(s.Q) == _bits(sol.samples.Q)
    mid = 0.5 * (s.r[:-1] + s.r[1:])
    near, far = mid[mid <= shot.r0], mid[mid > shot.r0]  # below r0 the shot is its series
    r_old, r_end, y_old, F = map(np.array, zip(*shot.steps))
    k = np.searchsorted(r_end, far)
    rows = (F[k, i] for i in reversed(range(F.shape[1])))
    want = np.concatenate((_horner(shot, near)[0], magma_lab.profile._dense(
        far[:, None], r_old[k, None], r_end[k, None], y_old[k], rows)[:, 0]))
    assert np.max(np.abs(magma_lab.profile._hermite(s, mid) - want)) <= 1e-11


def test_hermite_returns_the_samples_and_reproduces_quintics(critical3):
    hermite = magma_lab.profile._hermite
    s = critical3[1].samples
    assert _bits(hermite(s, s.r)) == _bits(s.Q)
    assert _bits([hermite(s, float(r)) for r in s.r[[0, 1, -2, -1]]]) == _bits(s.Q[[0, 1, -2, -1]])
    # any quintic comes back whole, on uneven radii too
    r = np.array([0.0, 0.3, 0.35, 1.0, 2.5])
    q = np.polynomial.Polynomial([0.9, -0.4, 0.3, 0.2, -0.1, 0.05])
    quintic = ShotSamples(r, q(r), q.deriv()(r), q.deriv(2)(r))
    x = np.linspace(0.0, 2.5, 101)
    np.testing.assert_allclose(hermite(quintic, x), q(x), rtol=0, atol=1e-14)


def test_embedding_a_read_back_profile_is_bit_identical(tmp_path, critical2):
    _, sol = critical2
    path = tmp_path / "profile.csv"
    write_profile_csv(path, sol)
    grid = TorusGrid((96, 96), (160.0, 160.0))
    want = embed_on_torus(sol, grid, center=(40.0, 80.0))
    got = embed_on_torus(read_profile_csv(path), grid, center=(40.0, 80.0))
    assert got.values.tobytes() == want.values.tobytes()


def test_fresh_profile_embeds_on_the_transit_torus_as_its_archive_does(tmp_path, critical2):
    # find_mu_c's profile carries its tail fit, as the archive read back does;
    # without it embed_on_torus bounds the tail by its last sample (1.1e-6
    # above 1 here) and refuses the criterion-8 torus (128^2, side 44 r_scale/k)
    _, sol = critical2
    path = tmp_path / "profile.csv"
    write_profile_csv(path, sol)
    back = read_profile_csv(path)
    assert sol.decay == back.decay is not None
    side = 44.0 * rescale(sol, 1.0 / sol.Q_tau).scaling.r_scale / back.decay.k
    grid = TorusGrid((128, 128), (side, side))
    assert embed_on_torus(sol, grid).values.tobytes() == embed_on_torus(back, grid).values.tobytes()


def test_profile_csv_round_trip(tmp_path, critical3):
    _, sol = critical3
    path_a = tmp_path / "profile.csv"
    path_b = tmp_path / "again.csv"
    write_profile_csv(path_a, sol)
    back = read_profile_csv(path_a)
    assert back.params == sol.params
    assert back.Q_tau == sol.Q_tau
    np.testing.assert_array_equal(back.samples.r, sol.samples.r)
    np.testing.assert_array_equal(back.samples.Q, sol.samples.Q)
    np.testing.assert_array_equal(back.samples.Q_r, sol.samples.Q_r)
    np.testing.assert_array_equal(back.samples.Q_rr, sol.samples.Q_rr)
    assert back.decay is not None and back.decay == sol.decay
    write_profile_csv(path_b, back)
    assert filecmp.cmp(path_a, path_b, shallow=False)


def test_profile_csv_without_decay(tmp_path, critical3):
    # an archive stores no fit: the one read back is decay_check's of the
    # rows, whatever the solution written held, and none where it has none:
    # a tail too short; a Q_tau off the exponential side by rounding on either
    # side of Q1 (one ulp below it at c = 2, where L rounds to 0, and Q1 itself
    # where L rounds to +2.2e-16); radii past the float range, which fit M = inf
    _, sol = critical3
    path = tmp_path / "bare.csv"
    write_profile_csv(path, replace(sol, decay=None))
    assert read_profile_csv(path).decay == sol.decay is not None
    path.write_text(_ARCHIVE)
    assert read_profile_csv(path).decay is None
    q1, rate = magma_lab.profile._q1, magma_lab.profile._decay_rate
    below = replace(sol.params, c=2.0)
    at = replace(sol.params, n=2.2991213054944013, c=2.1393598149011104)
    edges = [replace(sol, params=below, Q_tau=math.nextafter(q1(below), 0.0), decay=None),
             replace(sol, params=at, Q_tau=q1(at), decay=None)]
    assert [rate(e.params, e.Q_tau) for e in edges] == [0.0, 2.220446049250313e-16]
    assert [decay_check(e) for e in edges] == [None, None]
    far = replace(sol, samples=replace(sol.samples, r=1e306 + 1e304 * sol.samples.r), decay=None)
    for archived in (*edges, far):
        write_profile_csv(path, archived)
        assert read_profile_csv(path).decay is None


def test_profile_csv_rejects_malformed(tmp_path, critical3):
    _, sol = critical3
    path = tmp_path / "profile.csv"
    write_profile_csv(path, sol)
    lines = path.read_text().splitlines()

    no_meta = tmp_path / "no_meta.csv"
    no_meta.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match="metadata"):
        read_profile_csv(no_meta)

    no_header = tmp_path / "no_header.csv"
    no_header.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_profile_csv(no_header)


_ARCHIVE = (
    "# d=3.0, n=2.5, c=1.7, mu_c=-0.021, Q_tau=0.66, Q_star=0.29, k=0.5, M=0.12\n"
    "r,Q,Q_r,Q_rr\n0.0,1.0,0.0,-0.021\n0.01,0.999998,-0.00021,-0.021\n"
)


def test_profile_csv_errors_name_the_file(tmp_path):
    # "d=2.0, d=3.0" used to read as d=3.0, and a bad cell or a byte that is
    # not UTF-8 used to raise a message without the file (or the row); a
    # single sample row, radii that do not increase or a cell that is not
    # finite were read, and embedding then failed without naming the file
    path = tmp_path / "profile.csv"
    for raw, match in [
        (_ARCHIVE.replace("d=3.0", "d=2.0, d=3.0").encode(), "'d' twice"),
        (_ARCHIVE.replace("0.999998", "abc").encode(), "sample row 2: could not convert"),
        (_ARCHIVE.encode() + b"\xff\n", "utf-8"),
        (_ARCHIVE.replace("0.01,", "0.0,").encode(), "sample row 2: r does not increase"),
        (_ARCHIVE.rsplit("0.01,", 1)[0].encode(), "1 sample rows, fewer than 2"),
        (_ARCHIVE.replace("0.999998", "nan").encode(), "sample row 2: a value is not finite"),
        (_ARCHIVE.replace("-0.00021", "-inf").encode(), "sample row 2: a value is not finite"),
    ]:
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=match) as err:
            read_profile_csv(path)
        assert str(path) in str(err.value)


def _edited(edits: list[tuple[int, int, str]]) -> bytes:
    text = _ARCHIVE
    for at, width, new in edits:
        at = at % (len(text) + 1)
        text = text[:at] + new + text[at + width:]
    return text.encode()


_PIECES = st.one_of(
    st.text(st.sampled_from("0123456789.,=-+e# \nnaifdckMQ_u"), max_size=6),
    st.text(max_size=4),
    st.sampled_from(["nan", "inf", "-inf", "1e-300", "1e308", "-0.0", "d=2.0, "]),
)


@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.integers(0, len(_ARCHIVE)), st.integers(0, 8), _PIECES),
             min_size=1, max_size=4).map(_edited),
))
@example(_ARCHIVE.replace("c=1.7", "c=.7").encode())  # ValueError without the path
@example(_ARCHIVE.replace("Q_tau=0.66", "Q_tau=1e-300").encode())  # OverflowError
@example(_ARCHIVE.replace("0.01,", "0.0,").encode())  # r not increasing
@example(_ARCHIVE.rsplit("0.01,", 1)[0].encode())  # one sample row
@example(_ARCHIVE.replace("0.999998", "nan").encode())  # a sample that is not finite
def test_profile_csv_reader_fuzz(tmp_path_factory, raw):
    # any bytes: an archive that can be interpolated comes back, or a
    # ValueError that names the file
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(raw)
    try:
        got = read_profile_csv(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(got, ProfileSolution)
    assert len(got.samples.r) >= 2 and np.all(np.diff(got.samples.r) > 0.0)
    s = got.samples
    assert np.all(np.isfinite([s.r, s.Q, s.Q_r, s.Q_rr]))
    assert got.decay is None or (0.0 < got.decay.k < np.inf and 0.0 < got.decay.M < np.inf)
