"""Tilt calibration versus enumeration cutoff.

Prints, for each cutoff L up to a maximum, the calibrated tilt m_hat(L),
the tilted mass of the last counted length shell (the truncation
residue), and the transverse variance of the step law.  The sequence
m_hat(L) increases with L and the shell mass shrinks geometrically,
which is the practical convergence check for choosing a production
cutoff.

    python scripts/mass_convergence.py --d 2 --beta 1.2 --max-L 16

Enumeration cost grows roughly with the connective constant to the
power L.  In the plane, on a 2-vCPU Xeon, L = 16 alone takes 0.26-0.31 s
(enumeration, calibration and step law); the whole sweep above takes
0.67-0.85 s, interpreter start-up included.
"""

from __future__ import annotations

import argparse
import sys
import time

from sawbridge import cli, counting, renewal, sampler


def report(args: argparse.Namespace) -> None:
    print(f"d={args.d} beta={args.beta}")
    print(f"{'L':>3} {'m_hat':>20} {'shell_mass':>13} {'step_var':>10} {'secs':>7}")
    previous = None
    for cutoff in range(args.min_L, args.max_L + 1):
        started = time.perf_counter()
        table = counting.enumerate_counts(
            args.d, cutoff, counting.WalkClass.IRREDUCIBLE_BRIDGE
        )
        law = cli.calibrated_law(table, args.beta)
        shell = renewal.truncation_tail_mass(table, args.beta, law.m_hat)
        variance = sampler.transverse_step_variance(law)
        elapsed = time.perf_counter() - started
        note = "" if previous is None or law.m_hat > previous else "  <-- not increasing"
        print(
            f"{cutoff:>3} {law.m_hat:>20.16f} {shell:>13.3e}"
            f" {variance:>10.6f} {elapsed:>7.2f}{note}"
        )
        previous = law.m_hat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=2, help="lattice dimension")
    parser.add_argument("--beta", type=float, default=1.2, help="inverse temperature")
    parser.add_argument("--min-L", type=int, default=4, help="smallest cutoff")
    parser.add_argument("--max-L", type=int, default=16, help="largest cutoff")
    try:
        report(parser.parse_args())
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return cli.EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
