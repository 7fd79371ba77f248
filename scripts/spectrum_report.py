#!/usr/bin/env python3
"""Produce the exact spectrum, wavefunction grid, and degeneracy table.

A thin driver over the CLI commands so the standard quantum artifacts for
one parameter set land in a single directory.  It exits as the CLI does:
2 or 3 when any step hit a usage error or a numerical failure (the larger
code wins), 1 when a step's criterion failed, 0 otherwise.
"""

import argparse
import sys

from superint.cli import EXIT_USAGE, main as cli_main
from superint.errors import DomainError
from superint.quantum import exponents_from_couplings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", default="3/2")
    parser.add_argument("--Q", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--beta", type=float, default=0.3)
    parser.add_argument("--out-dir", default="spectrum_report")
    args = parser.parse_args()

    try:
        a, b = exponents_from_couplings(args.alpha, args.beta)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    codes = [
        cli_main(["spectrum", "--k", args.k, "--Q", str(args.Q),
                  "--a", str(a), "--b", str(b),
                  "--n-max", "3", "--m-max", "3", "--out-dir", args.out_dir]),
        cli_main(["degeneracy", "--k", args.k, "--N-max", "100",
                  "--out-dir", args.out_dir]),
        cli_main(["wavefunction-residual", "--k", args.k, "--Q", str(args.Q),
                  "--alpha", str(args.alpha), "--beta", str(args.beta),
                  "--n", "1", "--m", "1", "--export-grid",
                  "--out-dir", args.out_dir]),
        cli_main(["orthogonality", "--k", args.k, "--Q", str(args.Q),
                  "--alpha", str(args.alpha), "--beta", str(args.beta),
                  "--states", "0,0;1,0;0,1;1,1", "--out-dir", args.out_dir]),
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
