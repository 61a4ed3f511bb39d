"""Drive the full pipeline: enumerate, calibrate, sample, analyze, oracle.

Runs every stage with one shared configuration and stops at the first
nonzero exit code.  All flags of the `sawbridge` command line pass
through unchanged, so e.g.

    python scripts/run_campaign.py --out runs/main --threads 8
    python scripts/run_campaign.py --L 9 --n 5,6 --replicas 500 --out /tmp/r

The oracle stage only runs when the smallest configured span is small
enough to enumerate exhaustively at the configured dimension (default 2);
it is skipped otherwise.
"""

from __future__ import annotations

import sys

from sawbridge.cli import main
from sawbridge.counting import EXHAUSTIVE_SPAN_CAP


def flag_value(argv: list[str], flag: str) -> str | None:
    for name, value in zip(argv, argv[1:]):
        if name == flag:
            return value
    return None


def run(argv: list[str]) -> int:
    stages = ["enumerate", "calibrate", "sample", "analyze"]
    spans = [int(part) for part in (flag_value(argv, "--n") or "").split(",") if part]
    cap = EXHAUSTIVE_SPAN_CAP.get(int(flag_value(argv, "--d") or 2), 0)
    if spans and min(spans) <= cap:
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
