#!/usr/bin/env python3
"""Sweep the deformation index and record closure data for each orbit.

Writes one CSV row per index value: the number of radial periods to
closure, the return distance, and the total closure time.  Output lands
in --out-dir (default ./closure_portrait).  It exits as the CLI does: 2 when
the options give no bounded start, 3 on a numerical failure, 1 when an orbit
does not close within --tol, 0 otherwise.
"""

import argparse
import os
import sys

from superint.cli import EXIT_CRITERION, EXIT_NUMERICAL, EXIT_PASS, EXIT_USAGE, atomic_write_text
from superint.dynamics import closure_check, radial_period_closed_form
from superint.errors import AccuracyError, DegenerateOrbitError, DomainError, IntegrationError
from superint.systems import DCParams, RationalIndex, bounded_dc_state

# bounded-regime angular constants per index at Q = 1, E = -0.2
SETUPS = {
    "1": (0.2, 0.3, 0.75),
    "2": (0.2, 0.3, 1.1),
    "3": (0.08, 0.12, 1.1),
    "1/2": (0.2, 0.3, 0.6),
    "3/2": (0.2, 0.3, 0.9),
    "2/3": (0.2, 0.3, 0.7),
    "4": (0.05, 0.075, 1.1),
    "5/2": (0.13, 0.19, 1.0),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="closure_portrait")
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--energy", type=float, default=-0.2)
    args = parser.parse_args()

    try:
        starts = []
        for k_text, (alpha, beta, A) in SETUPS.items():
            k = RationalIndex.from_string(k_text)
            params = DCParams(Q=1.0, alpha=alpha, beta=beta, k=k)
            starts.append((k_text, params,
                           bounded_dc_state(params, args.energy, A, r_frac=0.35, u_frac=0.6)))
        T = radial_period_closed_form(1.0, args.energy)
        os.makedirs(args.out_dir, exist_ok=True)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = ["k,c,d,n_radial,return_distance,period_total,radial_period"]
    all_closed = True
    for k_text, params, pt in starts:
        k = params.k
        try:
            rep = closure_check(params, pt, 2 * k.c * k.d, tol=args.tol)
        except (DomainError, AccuracyError, DegenerateOrbitError, IntegrationError,
                ArithmeticError) as exc:
            print(f"numerical failure at k={k_text}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        all_closed &= rep.closed
        rows.append(f"{k_text},{k.c},{k.d},{rep.n_radial},"
                    f"{rep.return_distance!r},{rep.period_total!r},{T!r}")
        print(f"k={k_text}: closed={rep.closed} after {rep.n_radial} radial periods "
              f"(distance {rep.return_distance:.2e})")
    path = os.path.join(args.out_dir, "closure_portrait.csv")
    atomic_write_text(path, "\n".join(rows) + "\n")
    print(f"wrote {path}")
    return EXIT_PASS if all_closed else EXIT_CRITERION


if __name__ == "__main__":
    sys.exit(main())
