"""Sweep slab fill fractions and record how the certificate constants react.

For periodic slabs of period 1 the set stays thick for every positive fill,
but the restricted-inequality constants blow up as the fill shrinks, and
the certificate responds through c1 -> A -> (T, alpha, C).  This script
tabulates that dependence and checks each certificate against random
states.

    python3 scripts/slab_certification.py --m 256 --fills 0.5,0.25,0.125
"""

import argparse
import csv

from stabcert import FractionalLaplacian, PeriodicSlabs, certify_end_to_end, make_grid, make_set

FIELDS = ["fill", "status", "c1", "A", "T", "alpha", "C", "min_margin"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=256)
    ap.add_argument("--R", type=float, default=10.0)
    ap.add_argument("--s", type=float, default=1.0)
    ap.add_argument("--k-max", type=int, default=10)
    ap.add_argument("--fills", default="0.5,0.25,0.125")
    ap.add_argument("--out", default="slab_certificates.csv")
    args = ap.parse_args()

    domain = make_grid(1, args.R, args.m, periodic=True)
    spec = FractionalLaplacian(s=args.s)
    rows = []
    for fill in (float(v) for v in args.fills.split(",")):
        e = make_set(domain, PeriodicSlabs(period=1.0, fill_fraction=fill))
        row = dict.fromkeys(FIELDS, "")
        row["fill"] = fill
        try:
            res = certify_end_to_end(spec, domain, e, args.k_max, trials=100, recurrence_trials=50)
        except ValueError as exc:
            # a threshold up to --k-max whose projection range the grid does
            # not resolve: the constants are refused, not computed
            row["status"] = "refused"
            print(f"fill={fill:6.3f}  refused: {exc}")
            rows.append(row)
            continue
        row["status"] = res.status
        if res.certificate is None:
            # a +inf restricted-inequality constant: no certificate at this resolution
            print(f"fill={fill:6.3f}  {res.status}")
        else:
            cert = res.certificate
            row.update(c1=res.constants.c1, A=cert.A, T=cert.T, alpha=cert.alpha, C=cert.C,
                       min_margin=res.observability_report.min_margin)
            print(
                f"fill={fill:6.3f}  {res.status:9s}  c1={res.constants.c1:8.4f}  "
                f"T={cert.T:9.3f}  alpha={cert.alpha:.3e}  C={cert.C:.4e}"
            )
        rows.append(row)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
