"""Drive the full pipeline: enumerate, calibrate, sample, analyze, oracle.

Runs every stage with one shared configuration and stops at the first
nonzero exit code.  All flags of the `sawbridge` command line pass
through unchanged, so e.g.

    python scripts/run_campaign.py --out runs/main --threads 8
    python scripts/run_campaign.py --L 9 --n 5,6 --replicas 500 --out /tmp/r

The oracle stage only runs when the smallest span of the resolved
configuration (flags over the --config file over the defaults) is small
enough to enumerate exhaustively at its dimension; it is skipped
otherwise.
"""

from __future__ import annotations

import sys

from sawbridge.cli import build_parser, config_from_args, main
from sawbridge.counting import EXHAUSTIVE_SPAN_CAP


def run(argv: list[str]) -> int:
    stages = ["enumerate", "calibrate", "sample", "analyze"]
    try:
        config = config_from_args(build_parser().parse_args(["oracle", *argv]))
    except (ValueError, OSError):
        config = None  # the first stage reports the error
    if config is not None and min(config.spans) <= EXHAUSTIVE_SPAN_CAP[config.d]:
        stages.append("oracle")
    for stage in stages:
        print(f"== {stage} ==", flush=True)
        code = main([stage, *argv])
        if code != 0:
            print(f"{stage} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
