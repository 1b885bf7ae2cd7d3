"""Fixed reference kernels, timed between a workload's operations.

The benchmark's host is shared.  There, identical work runs up to twice as
slow for stretches of seconds to minutes, in CPU time as well as wall time,
so raw timings of the same code spread by 20-30% from run to run.  The
end-to-end timings are therefore reported in units of a reference kernel
timed right before and right after each operation, in the same process.
Each kernel makes the same kind of library calls as its workload, at the
same sizes, so interference slows both alike and cancels in the ratio.  The
kernels never call magma_lab: a change to the package moves only the
numerator.  The raw timings are printed beside the ratios.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp


def _spectral_chain(shape: tuple[int, ...], reps: int) -> None:
    """What one RHS stage does: phi^n, a spectral derivative, a few CG-like
    vector updates, over real transforms of the given shape."""
    axes = tuple(range(len(shape)))
    x = 1.0 + 0.1 * np.random.default_rng(0).random(shape)
    k = 1j * np.fft.rfftfreq(shape[-1])
    y = x
    for _ in range(reps):
        a = np.exp(2.0 * np.log(y))
        g = np.fft.irfftn(k * np.fft.rfftn(a), s=shape, axes=axes)
        r = g - a * y
        alpha = float(np.vdot(r, r)) / (1.0 + float(np.vdot(g, g)))
        y = x + 1e-3 * g + 1e-6 * alpha * r


# small_fft's wall time on an idle core of the development VM (see
# README.md).  Set-up time is reported as its ratio to small_fft times this,
# so it reads in seconds; the value is fixed, like the kernels.
SMALL_FFT_NOMINAL_S = 0.2


def small_fft() -> None:
    """256-point transforms: bound by per-call overhead, like evolve_1d."""
    _spectral_chain((256,), 6000)


def large_fft() -> None:
    """128x128 transforms: bound by arithmetic on arrays, like transit_2d."""
    _spectral_chain((128, 128), 200)


def _lane_emden(r: float, y):
    return [y[1], -abs(y[0]) ** 2.5 - 2.0 * y[1] / r]


def ode() -> None:
    """A DOP853 shot with a Python right-hand side, like shoot_grid."""
    solve_ivp(_lane_emden, (1e-6, 40.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)


def timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
