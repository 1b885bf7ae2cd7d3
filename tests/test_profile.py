"""Structure functions, shooting, classification, rescaling and archives."""

from __future__ import annotations

import filecmp
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import magma_lab.cli
import magma_lab.profile
from magma_lab import (
    DecayFit,
    DomainTooSmall,
    F1,
    F2,
    F3,
    Indeterminate,
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
    qr2_identity_gap,
    read_profile_csv,
    rescale,
    structure_fn,
    structure_report,
    write_profile_csv,
)
from magma_lab.profile import ATOL, R0, RTOL, WIDEN, _Shot

EXAMPLE = ProfileParams(d=3.0, n=2.5, c=1.7)


@pytest.fixture(scope="module")
def report3():
    return structure_report(EXAMPLE)


@pytest.fixture(scope="module")
def critical3():
    mu_c, sol = find_mu_c(EXAMPLE)
    fit = decay_check(sol)
    return mu_c, replace(sol, decay=fit)


@pytest.fixture(scope="module")
def critical2():
    p = ProfileParams(d=2.0, n=2.5, c=1.7)
    mu_c, sol = find_mu_c(p)
    fit = decay_check(sol)
    return mu_c, replace(sol, decay=fit)


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


def test_structure_report_frozen_digits(report3):
    assert report3.Q1 == pytest.approx(0.77328444663882409, abs=1e-14)
    assert report3.mu1_min == pytest.approx(-0.02145832706274009, abs=1e-13)
    assert report3.Q_star == pytest.approx(0.55250896337800284, abs=1e-11)
    assert report3.mu3_min < report3.mu1_min < report3.mu2_min < 0.0
    assert report3.intersection_gap <= 1e-8
    assert report3.Q_star < report3.Q3 < 1.0
    assert 0.0 < report3.Q2 < 1.0


@settings(max_examples=25)
@given(
    st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.0]),
    st.floats(min_value=2.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_structure_report_ordering_property(d, n, frac):
    c = 1.55 + frac * (n - 0.05 - 1.55)
    rep = structure_report(ProfileParams(d=d, n=n, c=c))
    assert rep.mu3_min < rep.mu1_min < rep.mu2_min < 0.0


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


def _scipy_shot(p, r_max):
    """The oracle: the same shot by solve_ivp's DOP853, with the two terminal events.

    Returns the outcome (classified by the library's rules) and solve_ivp's
    dense output.
    """
    prof = magma_lab.profile
    qrrr, qs = prof._qrrr(p), q_star(p.n)

    def odes(r, y):
        Q, Qr, Qrr = y.tolist()
        return (Qr, Qrr, qrrr(float(r), Q, Qr, Qrr))

    def floor(r, y):
        return y[0] - qs

    def turn(r, y):
        return y[1]

    floor.terminal = turn.terminal = True
    floor.direction, turn.direction = -1.0, 1.0
    sol = solve_ivp(odes, (R0, r_max), prof._series_start(p.mu), method="DOP853",
                    rtol=RTOL, atol=ATOL, events=(floor, turn), dense_output=True)
    assert sol.status >= 0, sol.message
    (rf, rt), y_turn = sol.t_events, sol.y_events[1]
    if len(rf) or len(rt):
        out = prof._event_outcome(rf[0] if len(rf) else np.inf, rt[0] if len(rt) else np.inf,
                                  y_turn[0] if len(rt) else None, qs)
    else:
        q_tau = prof._aitken_limit(sol.sol(r_max / 4.0)[0], sol.sol(r_max / 2.0)[0], sol.y[0, -1])
        out = ShotOutcome(ShotClass.FLAT, Q_tau=float(q_tau))
    return out, sol.sol


def _assert_samples_match(samples, sol):
    """Samples agree with the oracle's dense output on the same radii."""
    got = np.array([samples.Q, samples.Q_r, samples.Q_rr])
    np.testing.assert_allclose(got, sol(samples.r), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "p, r_max, cls",
    [
        (replace(EXAMPLE, mu=-0.021), 200.0, ShotClass.CROSSED),
        (replace(EXAMPLE, mu=structure_report(EXAMPLE).mu2_min / 2.0), 200.0, ShotClass.TURNED),
        (ProfileParams(d=3.0, n=2.5, c=1.9, mu=-0.009785371279291785), 60.0, ShotClass.FLAT),
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
        assert out_cls.Q_tau == pytest.approx(0.80754, abs=1e-5)


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
    # The pinned radii are solve_ivp's.  The library's stepper takes the
    # same steps but rounds differently, and this close to mu_c that moves
    # the radius far more than rounding: solve_ivp itself with RTOL scaled
    # by 1 + 1e-12 moves it by up to 2.5e-6 relative.
    p = ProfileParams(*params)
    want, _ = _scipy_shot(p, r_max)
    assert want.classification is ShotClass[cls]
    assert want.subcase == subcase
    assert (want.r_star if cls == "CROSSED" else want.tau) == pytest.approx(radius, rel=1e-8)
    for keep in (True, False):
        out, _ = integrate_shot(p, r_max=r_max, keep_samples=keep)
        assert out.classification is ShotClass[cls]
        assert out.subcase == subcase
        got = out.r_star if cls == "CROSSED" else out.tau
        assert got == pytest.approx(radius, rel=1e-5)


def _restarted(p, r_max):
    """Classify as perfbench's shoot_grid check does: restart at each doubling."""
    while True:
        try:
            return integrate_shot(p, r_max=r_max, keep_samples=False)[0]
        except Indeterminate:
            r_max *= 2.0


@pytest.mark.parametrize("params", [
    (7.0, 2.8, 2.0, -0.005645811857816623),
    (7.0, 2.8, 2.0, -0.005645811797816623),
    (7.0, 2.8, 2.0, -0.0056458117378166235),
])
def test_continued_shot_classifies_like_a_restarted_shot(params):
    # find_mu_c continues an unsettled shot from its last state and step
    p = ProfileParams(*params)
    with pytest.raises(Indeterminate) as err:
        integrate_shot(p, r_max=200.0, keep_samples=False)
    _assert_alike(err.value.shot.widen(WIDEN * 200.0), _restarted(p, 200.0), rel=1e-5)


def test_final_shot_continues_past_twice_r_max():
    # a seed-3 shoot_grid cell whose final shot is unsettled at 2*r_max = 400
    # and continues to its turn near 490.8; the samples change no bit of mu_c
    p, tol, r_max = ProfileParams(d=7.0, n=2.418502466919782, c=2.3501003871534207), 1e-8, 200.0

    def crosses(mu):
        try:
            out, _ = integrate_shot(replace(p, mu=mu), r_max=r_max, keep_samples=False)
        except Indeterminate as exc:
            out = exc.shot.widen(WIDEN * r_max)
        return out.classification is ShotClass.CROSSED

    rep = structure_report(p)
    lo, hi = rep.mu3_min * (1.0 + 1e-3), rep.mu2_min
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    mu_c, sol = find_mu_c(p, bisect_tol=tol, r_max=r_max)
    assert mu_c == hi
    assert sol.samples.r[-1] == pytest.approx(490.8, abs=0.1)
    _assert_samples_match(sol.samples, _scipy_shot(sol.params, 4.0 * r_max)[1])


def test_continued_shot_reads_the_probes_of_the_larger_radius():
    # the flat test at 2r reads 2r/10, r/2 and r, which the shot passed
    # before it stopped at r
    p = ProfileParams(d=3.0, n=2.5, c=1.9, mu=-0.009785371279291785)
    continued, restarted = _Shot(p, 7.5), _Shot(p, 15.0)
    for shot, radii in ((continued, (7.5, 15.0)), (restarted, (15.0,))):
        for r in radii:
            with pytest.raises(Indeterminate):
                shot.classify(r)
    probes = magma_lab.profile._tail(15.0) + [15.0 / 4.0, 15.0 / 2.0]
    for r in probes:
        np.testing.assert_allclose(continued.seen[r], restarted.seen[r], rtol=1e-9, atol=1e-15)


def test_stepper_takes_scipys_steps():
    # Same first step, error norm and step controller as SciPy's DOP853: the
    # same steps are accepted and rejected.  Near r = 0 the error estimate is
    # mostly rounding in (d-1)(Q_rr/r - Q_r/r^2), so the two step sizes there
    # differ by up to 2%.
    p = replace(EXAMPLE, mu=-0.021)
    qrrr = magma_lab.profile._qrrr(p)
    ours = _Shot(p, 200.0)
    ref = DOP853(lambda r, y: (y[1], y[2], qrrr(r, *y)), R0, ours.y, 200.0, rtol=RTOL, atol=ATOL)
    for k in range(80):
        ours.step(200.0)
        ref.step()
        assert ours.nfev == ref.nfev
        if k == 0:  # SciPy's guess at R0 is too long for the singular start
            assert ours.rejected == 8
    assert ours.r == pytest.approx(ref.t, rel=1e-3)


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


def test_integrate_shot_requires_mu_and_sane_radius():
    with pytest.raises(ValueError):
        integrate_shot(EXAMPLE)
    for r_max in (np.nan, np.inf, 0.0, -5.0):
        with pytest.raises(ValueError):
            integrate_shot(replace(EXAMPLE, mu=-0.021), r_max=r_max)


def test_classification_stable_under_tighter_rtol(monkeypatch):
    p = replace(EXAMPLE, mu=-0.021)
    out_a, _ = integrate_shot(p, keep_samples=False)
    monkeypatch.setattr(magma_lab.profile, "RTOL", 5e-11)
    out_b, _ = integrate_shot(p, keep_samples=False)
    assert out_a.classification is out_b.classification is ShotClass.CROSSED
    assert out_a.r_star == pytest.approx(out_b.r_star, abs=1e-5)


def test_indeterminate_when_radius_too_small(critical3):
    mu_c, _ = critical3
    with pytest.raises(Indeterminate):
        integrate_shot(replace(EXAMPLE, mu=mu_c), r_max=5.0)


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


def test_decay_check_fit_and_none(critical3):
    _, sol = critical3
    fit = sol.decay
    assert fit is not None
    assert fit.k > 0.0
    want_L = sol.Q_tau ** (-sol.params.n) - sol.params.n / (sol.params.c * sol.Q_tau)
    assert fit.L == pytest.approx(want_L, rel=1e-12)
    assert fit.n_samples >= 20
    assert 0.0 < fit.r_window[0] < fit.r_window[1] <= sol.samples.r[-1]
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
    assert back.decay is not None
    assert back.decay.k == sol.decay.k
    assert back.decay.M == sol.decay.M
    assert back.decay.L == pytest.approx(sol.decay.L, rel=1e-14)
    write_profile_csv(path_b, back)
    assert filecmp.cmp(path_a, path_b, shallow=False)


def test_profile_csv_without_decay(tmp_path, critical3):
    _, sol = critical3
    path = tmp_path / "bare.csv"
    write_profile_csv(path, replace(sol, decay=None))
    back = read_profile_csv(path)
    assert back.decay is None


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
    # single sample row or radii that do not increase were read, and
    # embedding then failed in PCHIP without naming the file
    path = tmp_path / "profile.csv"
    for raw, match in [
        (_ARCHIVE.replace("d=3.0", "d=2.0, d=3.0").encode(), "'d' twice"),
        (_ARCHIVE.replace("0.999998", "abc").encode(), "sample row 2: could not convert"),
        (_ARCHIVE.encode() + b"\xff\n", "utf-8"),
        (_ARCHIVE.replace("0.01,", "0.0,").encode(), "sample row 2: r does not increase"),
        (_ARCHIVE.rsplit("0.01,", 1)[0].encode(), "1 sample rows, fewer than 2"),
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
@example(_ARCHIVE.replace("0.01,", "0.0,").encode())  # r not increasing: PCHIP's error
@example(_ARCHIVE.rsplit("0.01,", 1)[0].encode())  # one sample row: PCHIP's error
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
