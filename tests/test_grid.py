"""Grid, field, transform, norm and snapshot unit tests."""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magma_lab import (
    EvolveConfig,
    Field,
    SnapshotFormatError,
    TorusGrid,
    Verdict,
    evolve,
    field_stats,
    fit_dispersion,
    hs_norm,
    read_snapshot,
    spectral_derivative,
    write_snapshot,
)
from magma_lab.grid import SNAPSHOT_MAGIC, SNAPSHOT_VERSION


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((), ())
    with pytest.raises(ValueError):
        TorusGrid((8, 8), (1.0,))
    with pytest.raises(ValueError):
        TorusGrid((7,), (1.0,))
    with pytest.raises(ValueError):
        TorusGrid((2,), (1.0,))
    with pytest.raises(ValueError):
        TorusGrid((8,), (-1.0,))


@pytest.mark.parametrize("n_points, lengths", [
    ((8, 8), (1e200, 1e200)),  # volume inf: phi = 1 logged mass and monitor nan
    ((64, 64), (1e308, 1e308)),  # an embedded profile reported mass inf
    ((8, 8), (1e-200, 1e-200)),  # volume 0: hs_norm of any field read 0
    ((4, 4, 4), (1e-120, 1e-120, 1e-120)),  # volume 1e-360 underflows
], ids=["huge", "huge-embed", "tiny", "tiny-3d"])
def test_grid_refuses_a_volume_outside_the_float_range(n_points, lengths):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only message
        with pytest.raises(ValueError, match="positive finite volume and cell volume"):
            TorusGrid(n_points, lengths)


def test_snapshot_of_a_refused_volume_is_a_format_error(tmp_path):
    path = tmp_path / "huge.bin"
    write_snapshot(Field.constant(TorusGrid((8, 8), (1.0, 1.0)), 1.0), path)
    raw = bytearray(path.read_bytes())
    raw[40:56] = struct.pack("<2d", 1e200, 1e200)  # the lengths follow the two point counts
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="positive finite volume"):
        read_snapshot(path)


def test_grid_keeps_extreme_sides_whose_volumes_are_floats():
    for lengths in [(1e300,), (1e-300,), (1e150, 1e150), (1e-100, 1e-100)]:
        g = TorusGrid((8,) * len(lengths), lengths)
        assert 0.0 < g.cell_volume < g.volume < np.inf


def test_grid_geometry():
    g = TorusGrid((8, 16), (2.0, 4.0))
    assert g.d == 2
    assert g.shape == (8, 16)
    assert g.size == 128
    assert g.spacing == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.volume == pytest.approx(8.0)
    x0 = g.axis_coordinates(0)
    assert x0[0] == 0.0 and x0[-1] == pytest.approx(2.0 - 0.25)
    cub = TorusGrid.cubic(3, 4)
    assert cub.shape == (4, 4, 4)
    assert cub.lengths == (2.0 * np.pi,) * 3


def test_wavenumbers_and_modes():
    g = TorusGrid((8,), (2.0 * np.pi,))
    k = g.axis_wavenumbers(0)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(1.0)
    assert k[-1] == pytest.approx(-1.0)
    gl = TorusGrid((8,), (4.0 * np.pi,))
    assert gl.axis_wavenumbers(0)[1] == pytest.approx(0.5)
    g2 = TorusGrid((8, 8), (2.0 * np.pi, 2.0 * np.pi))
    np.testing.assert_allclose(g2.mode_wavevector((1, -2)), [1.0, -2.0])


@pytest.mark.parametrize("shape", [(8,), (8, 6), (4, 6, 8)])
def test_cached_grid_arrays_are_read_only(shape):
    # every transform on a grid shares these arrays, so an in-place write
    # into one would corrupt every later solve on that grid
    g = TorusGrid(shape, (2.0 * np.pi,) * len(shape))
    cached = [*g.rfft_deriv_multipliers, g.rfft_k_squared, g.rfft_weights,
              g.norm_k_squared, g._inner_weights]
    for arr in cached:
        kept = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(arr, 1.0, out=arr)
        np.testing.assert_array_equal(arr, kept)
    assert g._k_squared_max == g.rfft_k_squared.max()
    np.testing.assert_array_equal(g._inner_weights, g.rfft_weights)


def test_field_validation_and_ops():
    g = TorusGrid((8,), (2.0 * np.pi,))
    with pytest.raises(ValueError):
        Field(g, np.ones(7))
    with pytest.raises(ValueError):
        Field(g, np.full(8, np.nan))
    f = Field.from_function(g, np.cos)
    h = Field.constant(g, 2.0)
    assert (f + h).values[0] == pytest.approx(3.0)
    assert (h - f).values[0] == pytest.approx(1.0)
    assert (2.0 * f).values[0] == pytest.approx(2.0)
    assert (f**2).values[0] == pytest.approx(1.0)
    assert (-f).values[0] == pytest.approx(-1.0)
    assert h.mean() == pytest.approx(2.0)
    assert f.mean() == pytest.approx(0.0, abs=1e-15)
    other = TorusGrid((16,), (2.0 * np.pi,))
    with pytest.raises(ValueError):
        _ = f + Field.constant(other, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_spectral_derivative_exact_on_trig():
    g = TorusGrid((64,), (2.0 * np.pi,))
    f = Field.from_function(g, lambda x: np.sin(5 * x) + 0.3 * np.cos(2 * x))
    want = Field.from_function(g, lambda x: 5 * np.cos(5 * x) - 0.6 * np.sin(2 * x))
    got = spectral_derivative(f, 0)
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)
    with pytest.raises(ValueError):
        spectral_derivative(f, 1)


def test_spectral_derivative_multidim_axes():
    g = TorusGrid((32, 32), (2.0 * np.pi, 4.0 * np.pi))
    f = Field.from_function(g, lambda x, y: np.cos(x + 0.5 * y))
    dx = spectral_derivative(f, 0)
    dy = spectral_derivative(f, 1)
    want = Field.from_function(g, lambda x, y: -np.sin(x + 0.5 * y))
    np.testing.assert_allclose(dx.values, want.values, atol=1e-12)
    np.testing.assert_allclose(dy.values, 0.5 * want.values, atol=1e-12)


def test_nyquist_mode_derivative_is_zero():
    g = TorusGrid((8,), (2.0 * np.pi,))
    f = Field.from_function(g, lambda x: np.cos(4 * x))
    np.testing.assert_allclose(f.values, [1, -1] * 4, atol=1e-14)
    d = spectral_derivative(f, 0)
    np.testing.assert_allclose(d.values, 0.0, atol=1e-13)


def test_hs_norm_analytic_values():
    g = TorusGrid((64,), (2.0 * np.pi,))
    f = Field.from_function(g, np.cos)
    assert hs_norm(f, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert hs_norm(f, 1.0) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)
    one = Field.constant(g, 1.0)
    assert hs_norm(one, 3.5) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)
    for s in (-1.0, np.nan, np.inf):  # nan and inf used to return nan and inf
        with pytest.raises(ValueError, match="norm index must be nonnegative and finite"):
            hs_norm(f, s)


def test_hs_norm_matches_grid_l2():
    g = TorusGrid((32, 16), (2.0 * np.pi, 2.0))
    rng = np.random.default_rng(3)
    f = Field(g, rng.normal(size=g.shape))
    l2 = np.sqrt(np.sum(f.values**2) * g.cell_volume)
    assert hs_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


def test_field_stats():
    g = TorusGrid((16,), (2.0 * np.pi,))
    f = Field.from_function(g, lambda x: 2.0 + np.cos(x))
    s = field_stats(f)
    assert s.min == pytest.approx(1.0)
    assert s.max == pytest.approx(3.0)
    assert s.inv_sup == pytest.approx(1.0)


@given(
    st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=3),
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hs_norm_matches_full_lattice_parseval(halves, length, s, seed):
    g = TorusGrid(tuple(2 * m for m in halves), (length,) * len(halves))
    rng = np.random.default_rng(seed)

    def along(axis, arr):
        return arr.reshape([-1 if i == axis else 1 for i in range(g.d)])

    vals = rng.normal(size=g.shape)
    k_sq = np.zeros(g.shape)
    for axis, n in enumerate(g.n_points):
        vals = vals + rng.normal() * along(axis, (-1.0) ** np.arange(n))  # Nyquist
        k_sq = k_sq + along(axis, 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)) ** 2
    c = np.fft.fftn(vals) / g.size
    want = np.sqrt(np.sum((1.0 + k_sq) ** s * np.abs(c) ** 2) * g.volume)
    assert hs_norm(Field(g, vals), s) == pytest.approx(want, rel=1e-12)


def test_torus_paths_use_real_transforms_only(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("full complex transform called")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    g = TorusGrid((16,), (2.0 * np.pi,))
    phi = Field.from_function(g, lambda x: 1.0 + 0.1 * np.cos(x))
    assert hs_norm(phi, 2.0) > 0.0
    spectral_derivative(phi, 0)
    res = evolve(phi, EvolveConfig(n_exponent=2.0, dt=0.01, t_end=0.03))
    assert res.report.verdict is Verdict.COMPLETED_TO_T_END
    assert len(res.report.times) == 4
    fit = fit_dispersion(g, 2.0, (1,))
    assert fit.relative_error < 1e-2


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_hs_norm_monotone_in_s(seed):
    g = TorusGrid((16,), (2.0 * np.pi,))
    vals = np.random.default_rng(seed).normal(size=g.shape)
    f = Field(g, vals)
    norms = [hs_norm(f, s) for s in (0.0, 1.0, 2.5, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_derivative_skew_adjoint(seed):
    g = TorusGrid((32,), (5.0,))
    rng = np.random.default_rng(seed)
    u = Field(g, rng.normal(size=g.shape))
    v = Field(g, rng.normal(size=g.shape))
    lhs = np.sum(spectral_derivative(u, 0).values * v.values)
    rhs = -np.sum(u.values * spectral_derivative(v, 0).values)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_snapshot_round_trip(tmp_path):
    g = TorusGrid((8, 4, 6), (1.0, 2.0, 3.5))
    rng = np.random.default_rng(11)
    f = Field(g, rng.normal(size=g.shape))
    path = tmp_path / "snap.bin"
    write_snapshot(f, path)
    back = read_snapshot(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_snapshot_malformations(tmp_path):
    g = TorusGrid((8,), (2.0 * np.pi,))
    f = Field.constant(g, 1.0)
    path = tmp_path / "snap.bin"
    write_snapshot(f, path)
    raw = path.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:10])
    with pytest.raises(SnapshotFormatError, match="header") as exc:
        read_snapshot(short)
    assert str(short) in str(exc.value)

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTMAGMA" + raw[8:])
    with pytest.raises(SnapshotFormatError, match="magic") as exc:
        read_snapshot(bad_magic)
    assert str(bad_magic) in str(exc.value)

    bad_pad = tmp_path / "pad.bin"
    bad_pad.write_bytes(SNAPSHOT_MAGIC + b"\x01" * 8 + raw[16:])
    with pytest.raises(SnapshotFormatError, match="magic") as exc:
        read_snapshot(bad_pad)
    assert str(bad_pad) in str(exc.value)

    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(raw[:16] + (99).to_bytes(4, "little") + raw[20:])
    with pytest.raises(SnapshotFormatError, match="version") as exc:
        read_snapshot(bad_version)
    assert str(bad_version) in str(exc.value)

    cut_header = tmp_path / "cut.bin"
    cut_header.write_bytes(raw[:30])  # one axis needs 40 header bytes
    with pytest.raises(SnapshotFormatError, match="truncated snapshot header") as exc:
        read_snapshot(cut_header)
    assert str(cut_header) in str(exc.value)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(SnapshotFormatError, match="payload") as exc:
        read_snapshot(truncated)
    assert str(truncated) in str(exc.value)

    # 2**32 * 2**32 points: a wrapped point count once matched an empty payload
    huge = tmp_path / "huge.bin"
    huge.write_bytes(_snapshot_bytes(SNAPSHOT_VERSION, 2, [2**32, 2**32], [1.0, 1.0], b""))
    with pytest.raises(SnapshotFormatError, match="payload") as exc:
        read_snapshot(huge)
    assert str(huge) in str(exc.value)

    # headers and samples that TorusGrid or Field refuse name the file
    samples = np.ones(8).tobytes()
    non_finite = samples[:-8] + np.float64(np.inf).tobytes()
    for n, length, body in ((7, 1.0, samples[:56]), (0, 1.0, b""),
                            (8, np.nan, samples), (8, 1.0, non_finite)):
        bad = tmp_path / "refused.bin"
        bad.write_bytes(_snapshot_bytes(SNAPSHOT_VERSION, 1, [n], [length], body))
        with pytest.raises(SnapshotFormatError, match="refused.bin"):
            read_snapshot(bad)


def _snapshot_bytes(version: int, d: int, n_points, lengths, payload: bytes) -> bytes:
    """The snapshot layout with arbitrary header fields."""
    head = struct.pack("<8s8xII", SNAPSHOT_MAGIC, version, d)
    head += struct.pack(f"<{len(n_points)}Q", *n_points)
    return head + struct.pack(f"<{len(lengths)}d", *lengths) + payload


_AXIS = st.tuples(
    st.one_of(st.sampled_from([4, 6, 8]), st.integers(0, 2**64 - 1)),
    st.one_of(st.floats(0.5, 10.0), st.floats()),
)


@given(st.lists(_AXIS, min_size=1, max_size=3), st.data())
def test_snapshot_reader_fuzz(tmp_path_factory, axes, data):
    n_points, lengths = [n for n, _ in axes], [L for _, L in axes]
    d = len(axes) if data.draw(st.integers(0, 3)) else data.draw(st.integers(0, 2**32 - 1))
    size = int(np.prod(n_points, dtype=object))
    if size <= 1000 and data.draw(st.booleans()):  # a payload of the right length
        vals = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=size)
        vals[: data.draw(st.integers(0, min(size, 2)))] = data.draw(st.floats())
        payload = vals.astype("<f8").tobytes()
    else:
        payload = data.draw(st.binary(max_size=200))
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(_snapshot_bytes(SNAPSHOT_VERSION, d, n_points, lengths, payload))
    try:
        got = read_snapshot(path)
    except SnapshotFormatError:
        return
    # A wrong d moves the header/payload boundary, and the bytes may then
    # spell another valid snapshot; whatever is accepted must write back as is.
    if d == len(axes):
        assert got.grid.n_points == tuple(n_points)
    assert np.all(np.isfinite(got.values))
    again = path.with_name("fuzz_again.bin")
    write_snapshot(got, again)
    assert again.read_bytes() == path.read_bytes()
