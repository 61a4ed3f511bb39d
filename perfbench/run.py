"""Benchmark of the sawbridge pipeline, run through its command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-span --seed 0 --seconds 20 --trace 0

Workloads are defined in bench.py.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 a separate traced run reports the
per-layer metrics and writes its spans to .bench_work/traces/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give iteration
counts, artifact table digests, any failures and, for a traced run, the
spans with the most self time (summed over the whole run).  The exit code is 0 when
every stage succeeded and every output check passed, 1 otherwise, and 2
when the sawbridge sources are not present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SELF_TIME_LINES = 12


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sawbridge" / "cli.py").is_file():
        print(f"error: no sawbridge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    runner = bench.Runner(ROOT, workload, args.seed, bool(args.trace))
    result = runner.run(args.seconds)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={runner.iterations} stages={runner.attempted}")
    for name, digest in sorted(runner.digests.items()):
        print(f"# digest {name} {digest}")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    if runner.trace_file:
        print(f"# trace {runner.trace_file.relative_to(ROOT)}")
        by_self = sorted(runner.summary.items(), key=lambda item: -item[1]["self_s"])
        for name, entry in by_self[:SELF_TIME_LINES]:
            print(f"# self {entry['self_s']:.4f} s  calls {entry['calls']}  {name}")
        for unseen in runner.unseen:
            print(f"# unseen {unseen}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
