"""Embed a critical solitary profile on a torus and watch it translate.

The critical profile at (d, n, c), normalized so its far field is 1,
should translate rigidly along the last axis with the rescaled speed
c_bar = Q_tau^{1-n} c.  The script embeds the profile on a periodic box
sized in units of the tail width 1/k, evolves one quarter-domain
transit with the pseudospectral stepper, and compares the tracked peak
speed and the final shape against the prediction.

Run (a couple of minutes at the defaults):
    python3 scripts/transit_demo.py
    python3 scripts/transit_demo.py --d 3 --n-side 48 --steps 120
"""

from __future__ import annotations

import argparse

import numpy as np

from magma_lab import (
    EvolveConfig,
    ProfileParams,
    TorusGrid,
    embed_on_torus,
    evolve,
    find_mu_c,
    rescale,
    track_peak,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=float, default=2.0)
    ap.add_argument("--n", type=float, default=2.5)
    ap.add_argument("--c", type=float, default=1.7)
    ap.add_argument("--widths", type=float, default=44.0,
                    help="box side in units of the tail width 1/k")
    ap.add_argument("--n-side", type=int, default=128)
    ap.add_argument("--steps", type=int, default=320)
    ap.add_argument("--snap-every", type=int, default=40)
    args = ap.parse_args()

    p = ProfileParams(d=args.d, n=args.n, c=args.c)
    mu_c, sol = find_mu_c(p)
    fit = sol.decay
    if fit is None:
        raise SystemExit("decay criterion fails here; no localized tail to embed")

    scaled = rescale(sol, 1.0 / sol.Q_tau)
    c_bar = scaled.scaling.c_bar
    width = scaled.scaling.r_scale / fit.k
    side = args.widths * width
    print(f"mu_c = {mu_c:.12f}   Q_tau = {sol.Q_tau:.10f}")
    print(f"c_bar = {c_bar:.8f} (> n = {p.n}: {c_bar > p.n})")
    print(f"tail width = {width:.4f}, box side = {side:.2f} "
          f"({args.n_side} points per axis)")

    grid = TorusGrid((args.n_side,) * int(p.d), (side,) * int(p.d))
    phi0 = embed_on_torus(sol, grid)
    T = 0.25 * side / c_bar
    cfg = EvolveConfig(n_exponent=p.n, dt=T / args.steps, t_end=T,
                       snapshot_every=args.snap_every)
    result = evolve(phi0, cfg)
    print(f"verdict = {result.report.verdict.value} at t_end = {T:.4f}")

    track = track_peak(result.snapshots)
    delta = track.positions[-1] - track.positions[0]
    k_last = grid.axis_wavenumbers(grid.d - 1)
    shifted = np.fft.ifft(
        np.fft.fft(phi0.values, axis=-1) * np.exp(-1j * k_last * delta), axis=-1
    ).real
    phiT = result.snapshots[-1][1].values
    shape_dev = np.sqrt(np.sum((phiT - shifted) ** 2) /
                        np.sum((phi0.values - 1.0) ** 2))

    print(f"tracked speed  = {track.speed:.8f}")
    print(f"speed error    = {abs(track.speed - c_bar) / c_bar:.3e} relative")
    print(f"shape deviation = {shape_dev:.3e} of the initial profile norm")


if __name__ == "__main__":
    main()
