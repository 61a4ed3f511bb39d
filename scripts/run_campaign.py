"""Drive the full pipeline: enumerate, calibrate, sample, analyze, oracle.

Runs every stage with one shared configuration and stops at the first
nonzero exit code.  All flags of the `sawbridge` command line pass
through unchanged, so e.g.

    python scripts/run_campaign.py --out runs/main --threads 8
    python scripts/run_campaign.py --L 9 --n 5,6 --replicas 500 --out /tmp/r

The oracle stage only runs when `counting.bridges_to_axis_point`, which
refuses when called and searches lazily, serves the smallest span of the
resolved configuration (flags over the --config file over the defaults)
at its dimension and cutoff; it is skipped otherwise.
"""

from __future__ import annotations

import sys

from sawbridge.cli import build_parser, config_from_args, main
from sawbridge.counting import bridges_to_axis_point


def run(argv: list[str]) -> int:
    stages = ["enumerate", "calibrate", "sample", "analyze"]
    try:
        config = config_from_args(build_parser().parse_args(["oracle", *argv]))
        bridges_to_axis_point(config.d, min(config.spans), config.cutoff)
        stages.append("oracle")
    except (ValueError, OSError):
        pass  # oracle would refuse, or the first stage reports a bad config
    for stage in stages:
        print(f"== {stage} ==", flush=True)
        code = main([stage, *argv])
        if code != 0:
            print(f"{stage} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
