"""Uniform periodic grids, real fields, and their Fourier companions.

Conventions used throughout the package:

* every transform is a real one, made by ``TorusGrid.rfft`` and
  ``TorusGrid.irfft``; no other module calls ``np.fft``, so the rfft
  layout (its shape, axes and Hermitian weights) is decided here alone;
* wavenumbers on axis ``j`` are ``2*pi*fftfreq(N_j, L_j/N_j)``; the rfft
  lattice keeps the first ``N/2 + 1`` of them on the last axis;
* odd-order spectral derivatives zero the Nyquist mode on the axis being
  differentiated, so real fields stay real and the derivative is
  skew-adjoint on the grid;
* ``TorusGrid.inner`` and ``hs_norm`` sum the half spectrum, counting each
  interior last-axis column twice for its conjugate mirror and the mean and
  Nyquist columns once; ``hs_norm(f, 0)`` equals the L2 norm of ``f`` over
  the torus, i.e. the Parseval weight carries the domain volume;
* ``hs_norm`` (weight (1 + |k|^2)^s) and ``field_stats`` (min, max,
  sup|1/f|) are the only code for these statistics; the monitor is built on them;
* ``TorusGrid`` refuses sides whose volume or cell volume is not a positive finite float.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "FieldStats",
    "SnapshotFormatError",
    "spectral_derivative",
    "hs_norm",
    "field_stats",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = b"MAGMAFLD"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(IOError):
    """Raised when a snapshot file does not follow the binary layout."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on a d-dimensional torus of given side lengths."""

    n_points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        n_points = tuple(int(n) for n in self.n_points)
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "lengths", lengths)
        if len(n_points) == 0:
            raise ValueError("grid needs at least one axis")
        if len(lengths) != len(n_points):
            raise ValueError("n_points and lengths must have the same length")
        for n in n_points:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"points per axis must be even and >= 4, got {n}")
        for L in lengths:
            if not np.isfinite(L) or L <= 0:
                raise ValueError(f"side lengths must be positive, got {L}")
        # cell_volume <= volume, so this refuses a product that over- or underflows
        if not (self.cell_volume > 0.0 and self.volume < np.inf):
            raise ValueError(f"side lengths must give a positive finite volume and cell "
                             f"volume, got {self.volume} and {self.cell_volume}")

    @classmethod
    def cubic(cls, d: int, n: int, length: float = 2.0 * np.pi) -> "TorusGrid":
        return cls((n,) * d, (length,) * d)

    @property
    def d(self) -> int:
        return len(self.n_points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_points

    @cached_property
    def size(self) -> int:
        return math.prod(self.n_points)  # exact: np.prod wraps past 2**63

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.n_points))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @cached_property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        n, L = self.n_points[axis], self.lengths[axis]
        return np.arange(n) * (L / n)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Open (broadcastable) coordinate arrays, one per axis."""
        return tuple(self._along(j, self.axis_coordinates(j)) for j in range(self.d))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coordinates(j) for j in range(self.d)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        n, L = self.n_points[axis], self.lengths[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)

    def _along(self, axis: int, arr: np.ndarray) -> np.ndarray:
        """Shape a 1d array over ``axis`` to broadcast against the grid."""
        return arr.reshape(tuple(-1 if i == axis else 1 for i in range(self.d)))

    @cached_property
    def rfft_shape(self) -> tuple[int, ...]:
        return self.shape[:-1] + (self.n_points[-1] // 2 + 1,)

    # The cached arrays below are shared by every transform on this grid, so
    # they are read-only: an in-place slip raises instead of corrupting them.
    @cached_property
    def rfft_deriv_multipliers(self) -> tuple[np.ndarray, ...]:
        out = []
        for j in range(self.d):
            k = self.axis_wavenumbers(j)[: self.rfft_shape[j]]
            k[self.n_points[j] // 2] = 0.0
            out.append(_readonly(self._along(j, 1j * k)))
        return tuple(out)

    @cached_property
    def rfft_k_squared(self) -> np.ndarray:
        """Derivative-convention |k|^2 on the rfft lattice (Nyquist zeroed)."""
        out = np.zeros(self.rfft_shape)
        for ik in self.rfft_deriv_multipliers:
            out = out + np.abs(ik) ** 2
        return _readonly(out)

    @cached_property
    def _k_squared_max(self) -> float:
        return float(self.rfft_k_squared.max())

    @cached_property
    def rfft_weights(self) -> np.ndarray:
        """Hermitian weights along the last rfft axis: interior columns count
        twice, for their conjugate mirrors; the mean and Nyquist columns once."""
        w = np.full(self.rfft_shape[-1], 2.0)
        w[0] = w[-1] = 1.0
        return _readonly(self._along(self.d - 1, w))

    @cached_property
    def _inner_weights(self) -> np.ndarray:
        # complex, as a product with a complex array casts them: exact, once
        return _readonly(self.rfft_weights.astype(complex))

    @cached_property
    def _axes(self) -> tuple[int, ...]:
        return tuple(range(self.d))

    def rfft(self, vals: np.ndarray) -> np.ndarray:
        """rfft coefficients of samples on this grid."""
        return np.fft.rfftn(vals)

    def irfft(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples on this grid of rfft coefficients."""
        return np.fft.irfftn(coeffs, s=self.shape, axes=self._axes)

    def inner(self, uh: np.ndarray, vh: np.ndarray) -> float:
        """Hermitian-weighted inner product of rfft coefficients: ``size``
        times the sample inner product of the real fields they stand for."""
        return float(np.vdot(uh, self._inner_weights * vh).real)

    @cached_property
    def norm_k_squared(self) -> np.ndarray:
        """|k|^2 on the rfft lattice with the Nyquist modes at their true value."""
        out = np.zeros(self.rfft_shape)
        for j in range(self.d):
            k = self.axis_wavenumbers(j)[: self.rfft_shape[j]]
            out = out + self._along(j, k) ** 2
        return _readonly(out)

    def mode_wavevector(self, mode: Sequence[int]) -> np.ndarray:
        try:
            return np.array([2.0 * np.pi * m / L for m, L in zip(mode, self.lengths)])
        except OverflowError:  # an integer beyond the float range
            raise ValueError("mode numbers must fit a float") from None


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar sample values on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(values.copy()))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "Field":
        return cls(grid, np.broadcast_to(fn(*grid.coordinates()), grid.shape))

    def _binary(self, other, op) -> "Field":
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return Field(self.grid, op(self.values, other.values))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Field(self.grid, np.subtract(other, self.values))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        return Field(self.grid, np.power(self.values, exponent))

    def __neg__(self):
        return Field(self.grid, -self.values)

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class FieldStats:
    min: float
    max: float
    inv_sup: float


def spectral_derivative(f: Field, axis: int) -> Field:
    """First derivative along ``axis``; Nyquist mode dropped."""
    if not 0 <= axis < f.grid.d:
        raise ValueError(f"axis {axis} out of range for d={f.grid.d}")
    ik = f.grid.rfft_deriv_multipliers[axis]
    return Field(f.grid, f.grid.irfft(ik * f.grid.rfft(f.values)))


def hs_norm(f: Field, s: float) -> float:
    """Sobolev norm of index ``s``, with the weight (1 + |k|^2)^s on the rfft
    lattice; reduces to the L2 norm at ``s = 0``."""
    if not 0 <= s < np.inf:
        raise ValueError(f"norm index must be nonnegative and finite, got {s}")
    g = f.grid
    c = g.rfft(f.values) / g.size
    power = g.rfft_weights * (c.real**2 + c.imag**2)
    return float(np.sqrt(np.sum((1.0 + g.norm_k_squared) ** s * power) * g.volume))


def field_stats(f: Field) -> FieldStats:
    lo = float(f.values.min())
    hi = float(f.values.max())
    inv_sup = np.inf if lo <= 0.0 else 1.0 / lo
    return FieldStats(min=lo, max=hi, inv_sup=inv_sup)


def write_snapshot(f: Field, path) -> None:
    """Write the binary snapshot layout: magic, version, d, shape, lengths, data."""
    g = f.grid
    header = struct.pack("<8s8xII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.d)
    header += struct.pack(f"<{g.d}Q", *g.n_points)
    header += struct.pack(f"<{g.d}d", *g.lengths)
    data = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_snapshot(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise SnapshotFormatError(f"{path}: snapshot shorter than fixed header")
    magic, pad, version, d = raw[:8], raw[8:16], *struct.unpack("<II", raw[16:24])
    if magic != SNAPSHOT_MAGIC or pad != b"\x00" * 8:
        raise SnapshotFormatError(f"{path}: bad magic bytes")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported snapshot version {version}")
    if d < 1 or len(raw) < 24 + 16 * d:
        raise SnapshotFormatError(f"{path}: truncated snapshot header")
    off = 24
    n_points = struct.unpack(f"<{d}Q", raw[off : off + 8 * d])
    off += 8 * d
    lengths = struct.unpack(f"<{d}d", raw[off : off + 8 * d])
    off += 8 * d
    try:
        grid = TorusGrid(tuple(int(n) for n in n_points), lengths)
        expected = grid.size * 8
        if len(raw) - off != expected:
            raise SnapshotFormatError(
                f"{path}: payload holds {len(raw) - off} bytes, expected {expected}"
            )
        values = np.frombuffer(raw, dtype="<f8", offset=off).reshape(grid.shape)
        return Field(grid, values.astype(np.float64))
    except ValueError as exc:  # a grid or samples that TorusGrid or Field refuse
        raise SnapshotFormatError(f"{path}: {exc}") from None
