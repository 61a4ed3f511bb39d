"""Slab decay-rate and axis-prefactor diagnostics at a fixed cutoff.

Two qualitative tables from exact counts alone:

* the per-n slab decay rates of bridges and irreducible bridges, whose
  gap at the largest n is the finite-size signature of the strictly
  faster irreducible decay;
* the axis prefactor r(n) = g(n, 0) n^((d-1)/2) e^(n tau_hat) together
  with consecutive ratios, which flatten toward one when the power-law
  correction to the two-point decay has the expected exponent.  tau_hat
  is the decay rate at n_max, so r(n_max) = n_max^((d-1)/2) by that
  choice (2.000000 at d = 2, L = 8) and the last ratio is not evidence.

    python scripts/decay_diagnostics.py --d 2 --L 12 --beta 1.2
"""

from __future__ import annotations

import argparse
import sys

from sawbridge import counting
from sawbridge.cli import EXIT_VALIDATION
from sawbridge.counting import WalkClass


def report(args: argparse.Namespace) -> None:
    n_max = args.n_max or max(1, args.L // 3)
    tables = {
        walk_class: counting.enumerate_counts(args.d, args.L, walk_class)
        for walk_class in WalkClass
    }
    bridge, irreducible = (
        counting.slab_rates(tables[walk_class], args.beta, n_max)
        for walk_class in (WalkClass.BRIDGE, WalkClass.IRREDUCIBLE_BRIDGE)
    )
    print(f"d={args.d} L={args.L} beta={args.beta}")
    print("slab decay rates (log weight / n)")
    print(f"{'n':>3} {'bridge':>12} {'irreducible':>12}")
    for n, (b, i) in enumerate(zip(bridge, irreducible), 1):
        print(f"{n:>3} {b:>12.6f} {i:>12.6f}")
    print(f"gap estimate at n={n_max}: {bridge[-1] - irreducible[-1]:.6f}")

    # Past n ~ L/2 the truncation starves the axis weight (at n = L only
    # the straight walk survives), so the prefactor window stops there.
    prefactor, tau_hat = counting.oz_prefactor(
        tables[WalkClass.ALL], args.beta, args.n_max or max(1, args.L // 2)
    )
    ratios = prefactor[1:] / prefactor[:-1]
    print()
    print(f"axis prefactor, tau_hat={tau_hat:.6f}")
    print(f"{'n':>3} {'prefactor':>12} {'ratio':>8}")
    for n, value in enumerate(prefactor, 1):
        ratio = f"{ratios[n - 2]:>8.4f}" if n > 1 else f"{'':>8}"
        print(f"{n:>3} {value:>12.6f} {ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=2, help="lattice dimension")
    parser.add_argument("--L", type=int, default=12, help="enumeration cutoff")
    parser.add_argument("--beta", type=float, default=1.2, help="inverse temperature")
    parser.add_argument(
        "--n-max", type=int, default=0,
        help="largest axis distance (default: cutoff // 3, since an"
        " irreducible bridge spanning a slab of width n needs about"
        " 3n steps)",
    )
    try:
        report(parser.parse_args())
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
