#!/usr/bin/env python3
"""Numeric sanity checks for the sigmoid-MLE pooling.

Prints, for a handful of random attribute pairs: how far the singleton
optimum is from the attribute direction (it should be a positive
multiple of it) and how far the pair optimum is from the conical hull
of the two singleton optima.  These numbers corroborate the geometric
assumptions behind the sigmoid impossibility certificates; they prove
nothing on their own.
"""

import argparse
import json
import sys

from embedsim.sigmoid import sig_conical_diagnostics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dimension", type=int, default=4)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--iterations", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        diag = sig_conical_diagnostics(args.dimension, args.trials,
                                       args.kappa, args.iterations, args.seed)
    except ValueError as exc:
        # as parser.error, but one line: no usage text
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    json.dump(diag, sys.stdout, indent=2)
    print()
    worst_angle = max(max(t["singleton_angle_a"], t["singleton_angle_b"])
                      for t in diag["trials"])
    worst_residual = max(t["pair_cone_residual"] for t in diag["trials"])
    print(f"worst singleton angle: {worst_angle:.3e} rad", file=sys.stderr)
    print(f"worst cone residual:   {worst_residual:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
