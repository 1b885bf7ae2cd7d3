"""Walk through the headline parameter point d=3, n=2.5, c=1.7.

The script reproduces the full solitary-wave workflow at one parameter
point: locate the minima of the three structure-function curves, verify
the two bracketing shot classifications, search the bracket for the
critical curvature mu_c (a safeguarded bisection that probes where the
radii of crossing shots predict it), fit the amplitude M of the tail
M exp(-k r) whose rate is k = sqrt(L(Q_tau)), and report the rescaling
that normalizes the far field to 1.

Run:
    python3 scripts/example_regime.py
    python3 scripts/example_regime.py --d 2 --c 1.6 --out runs/planar
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from magma_lab import (
    ProfileParams,
    ShotClass,
    find_mu_c,
    integrate_shot,
    rescale,
    structure_report,
    write_profile_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=float, default=3.0)
    ap.add_argument("--n", type=float, default=2.5)
    ap.add_argument("--c", type=float, default=1.7)
    ap.add_argument("--bisect-tol", type=float, default=1e-12)
    ap.add_argument("--out", default=None, help="directory for profile.csv")
    args = ap.parse_args()

    p = ProfileParams(d=args.d, n=args.n, c=args.c)
    rep = structure_report(p)
    print(f"Q_star   = {rep.Q_star:.15f}")
    print(f"Q1       = {rep.Q1:.15f}   (decay criterion: Q_tau < Q1)")
    print(f"mu1_min  = {rep.mu1_min:.15f}  at Q = {rep.Q1:.12f}")
    print(f"mu2_min  = {rep.mu2_min:.15f}  at Q = {rep.Q2:.12f}")
    print(f"mu3_min  = {rep.mu3_min:.15f}  at Q = {rep.Q3:.12f}")

    lo, hi = 2.0 * rep.mu3_min, rep.mu2_min / 2.0
    for label, mu in (("2*mu3_min", lo), ("mu2_min/2", hi)):
        outcome, _ = integrate_shot(replace(p, mu=mu), keep_samples=False)
        print(f"shot at {label} = {mu:+.6f}: {outcome.classification.value}")

    mu_c, sol = find_mu_c(p, bisect_tol=args.bisect_tol)
    fit = sol.decay
    print(f"mu_c     = {mu_c:.15f}")
    print(f"Q_tau    = {sol.Q_tau:.15f}")

    scaled = rescale(sol, 1.0 / sol.Q_tau)
    print(f"c_bar    = {scaled.scaling.c_bar:.12f}  (supersonic iff > n = {p.n})")
    if fit is not None:
        print(f"tail     ~ {fit.M:.4f} * exp(-{fit.k:.6f} r)  [rate k = sqrt(L(Q_tau))]")
    else:
        print("tail     : decay criterion fails, no envelope fitted")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "profile.csv")
        write_profile_csv(path, sol)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
