"""Critical curvature and tail limit as functions of the wave speed c.

For fixed (d, n) the script sweeps c across [1.55, n), searches for the
critical curvature at each point, and records the limit Q_tau, the
rescaled speed c_bar = Q_tau^{1-n} c and the tail rate k = sqrt(L(Q_tau))
of the linearized tail.  Near the corner c -> n that rate vanishes, so k
collapses and classification radii grow; the sweep shows both trends.

Run:
    python3 scripts/speed_sweep.py --d 3 --n 2.5 --points 9 --out sweep.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from magma_lab import (
    ProfileError,
    ProfileParams,
    find_mu_c,
    rescale,
    structure_report,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=float, default=3.0)
    ap.add_argument("--n", type=float, default=2.5)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--margin", type=float, default=0.02,
                    help="stay this far below the sonic corner c = n")
    ap.add_argument("--bisect-tol", type=float, default=1e-10)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    speeds = np.linspace(1.55, args.n - args.margin, args.points)
    rows = ["c,mu_c,Q_tau,Q1,c_bar,k"]
    for c in speeds:
        p = ProfileParams(d=args.d, n=args.n, c=float(c))
        try:
            Q1 = structure_report(p).Q1
            mu_c, sol = find_mu_c(p, bisect_tol=args.bisect_tol)
        except ProfileError as exc:
            print(f"c = {c:.4f}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        c_bar = rescale(sol, 1.0 / sol.Q_tau).scaling.c_bar
        k = sol.decay.k if sol.decay is not None else float("nan")
        rows.append(f"{c:.6f},{mu_c:.12e},{sol.Q_tau:.12f},{Q1:.12f},{c_bar:.12f},{k:.6f}")
        print(f"c = {c:.4f}  mu_c = {mu_c:+.8f}  Q_tau = {sol.Q_tau:.8f}  "
              f"c_bar = {c_bar:.6f}  k = {k:.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
