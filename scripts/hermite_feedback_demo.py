"""Closed-loop decay for the double-well-like potential V = x^2 - 4.

The open loop has two unstable modes (eigenvalues -3 and -1).  The
finite-rank feedback built from their restriction to E = {x > 0} flips both
into decay; the script simulates the open and closed loops from the same
random initial state and writes both norm histories for plotting.

    python3 scripts/hermite_feedback_demo.py --m 512 --t-end 5
"""

import argparse
import csv

import numpy as np

from stabcert import GridFunction, HalfSpace, make_grid, make_set, norm
from stabcert.feedback import UnstableLoopError, build_finite_rank_feedback, feedback_norm_bound, simulate_decay
from stabcert.domain import from_callable
from stabcert.operators import Schrodinger, diagonalize


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=512)
    ap.add_argument("--R", type=float, default=10.0)
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--dt", type=float, default=0.002)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="feedback_decay.csv")
    args = ap.parse_args()

    domain = make_grid(1, args.R, args.m, periodic=False)
    potential = from_callable(domain, lambda x: x**2 - 4.0)
    dec = diagonalize(Schrodinger(potential=potential), domain)
    print("lowest eigenvalues:", dec.eigenvalues[:4])
    e = make_set(domain, HalfSpace(axis=0, offset=0.0))
    fb = build_finite_rank_feedback(dec, e)
    print(
        f"rho={fb.rho}  unstable modes={fb.unstable_count}  "
        f"cond(A)={fb.gram_cond:.3f}  ||K|| <= {feedback_norm_bound(fb):.2f}"
    )

    rng = np.random.default_rng(args.seed)
    y0 = GridFunction(domain, rng.standard_normal(domain.shape))
    y0 = GridFunction(domain, y0.values / norm(y0))
    closed = simulate_decay(dec, fb, e, y0, args.t_end, args.dt)
    print(f"closed loop: fitted omega = {closed.fitted_omega:.4f}")
    try:
        open_loop = simulate_decay(dec, None, e, y0, args.t_end, args.dt)
        print(f"open loop:   fitted omega = {open_loop.fitted_omega:.4f}")
        open_norms = dict(zip(open_loop.times, open_loop.norms))
    except UnstableLoopError as exc:  # the open loop blows up, which is the point
        print(f"open loop:   {exc}")
        open_norms = {}

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "closed_norm", "open_norm"])
        for t, n in zip(closed.times, closed.norms):
            writer.writerow([t, n, open_norms.get(t, "")])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
