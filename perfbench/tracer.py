"""Run one sawbridge CLI stage with spans around the public functions it calls.

Usage: python3 perfbench/tracer.py SPANS_JSON PARENT_ID RUN_ID -- <cli arguments>

The program is not modified.  Before `sawbridge.cli.main` runs, each
function listed in PATCHES is replaced, at the module attribute its caller
looks up, by a wrapper that records a span (name, start, end, parent,
run id) and, after the span has closed, the exact counters of that layer.
Spans and counters stay in memory and are written to SPANS_JSON when the
stage ends, so tracing adds no I/O inside the measured calls.

Worker processes of a process pool (`enumerate --threads 2`) do not run
these wrappers; their work is visible only inside the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span recorder and counter store for one stage process."""

    def __init__(self, parent: str, run: str):
        self.run = run
        self.spans: list[dict] = []
        self.stack = [parent]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), int(value))

    def wrap(self, module, attr: str, tag=None, count=None) -> None:
        """Replace module.attr by a spanning wrapper.

        tag(bound) names a sub-kind of the call; count(tracer, bound,
        result) records counters once the span is closed.
        """
        original = getattr(module, attr)
        name = f"{module.__name__}.{attr}"
        signature = inspect.signature(original) if tag or count else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            span = {
                "id": f"{self.stack[0]}.{len(self.spans)}",
                "name": name,
                "tag": tag(bound) if tag else None,
                "parent": self.stack[-1],
                "run": self.run,
                "start_ns": time.perf_counter_ns(),
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self.stack.pop()
            if count:
                count(self, bound, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        payload = {"spans": self.spans, "counters": self.counters, "maxima": self.maxima}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def unique_states(skeletons) -> int:
    """Distinct (t, y) states among active replicates, summed over rounds.

    The backward sampler starts every replicate at (n, 0) and removes one
    increment per round, so before round r a replicate with k increments
    sits at the partial sum of its first k - r increments.
    """
    lengths = np.array([len(s.increments) for s in skeletons], dtype=np.int64)
    if not lengths.sum():
        return 0
    steps = np.array(
        [(step.t, *step.y) for s in skeletons for step in s.increments], dtype=np.int64
    )
    owner = np.repeat(np.arange(lengths.size), lengths)
    starts = np.cumsum(lengths) - lengths
    totals = np.cumsum(steps, axis=0)
    before = np.vstack((np.zeros((1, steps.shape[1]), dtype=np.int64), totals))[starts]
    prefix = totals - before[owner]
    position = np.arange(len(steps)) - starts[owner] + 1
    states = np.column_stack((lengths[owner] - position, prefix))
    return len(np.unique(states, axis=0))


def _count_enumerate(tracer, bound, table):
    tracer.add("counting.walks_counted", sum(int(row.sum()) for row in table.counts.values()))


def _count_cache_save(tracer, bound, _):
    tracer.add("counting.cache_bytes", os.path.getsize(bound["path"]))


def _count_law(tracer, bound, law):
    tracer.peak("renewal.law_support", len(law.probs))


def _count_exact_law(tracer, bound, law):
    tracer.add("counting.exact_law_support", len(law))


def _count_dp(tracer, bound, table):
    law = bound["law"]
    reach = max((abs(c) for step in law.probs for c in step.y), default=0)
    wide = table.radius + max(2 * reach, (table.radius + 1) // 2)
    cells = (2 * table.radius + 1) ** (law.d - 1) + (2 * wide + 1) ** (law.d - 1)
    tracer.peak("sampler.dp_radius", table.radius)
    tracer.add("sampler.dp_cell_updates", table.n * len(law.probs) * cells)


def _count_sample(tracer, bound, skeletons):
    lengths = [len(s.increments) for s in skeletons]
    tracer.add("sampler.replicate_steps", sum(lengths))
    tracer.peak("sampler.rounds_max", max(lengths, default=0))
    tracer.add("sampler.unique_states", unique_states(skeletons))


def _count_uniforms(tracer, bound, block):
    tracer.add("rng.streams", block.shape[0])
    tracer.add("rng.draws", block.size)


def _count_csv_write(tracer, bound, _):
    data = Path(bound["path"]).read_bytes()
    tracer.add("reporting.rows_written", data.count(b"\n") - 3)
    tracer.add("reporting.bytes_written", len(data))


def _count_csv_read(tracer, bound, result):
    tracer.add("reporting.rows_read", len(result[2]))


def _walk_class(bound):
    return bound["walk_class"].value


# (module, attribute, tag, counter): each attribute is the name the
# calling module looks up at call time
PATCHES = (
    ("sawbridge.counting", "enumerate_counts", _walk_class, _count_enumerate),
    ("sawbridge.counting", "save_count_table", None, _count_cache_save),
    ("sawbridge.counting", "load_count_table", None, None),
    ("sawbridge.counting", "exact_conditioned_skeleton_law", None, _count_exact_law),
    ("sawbridge.renewal", "calibrate_mass", None, None),
    ("sawbridge.renewal", "build_step_law", None, _count_law),
    ("sawbridge.renewal", "step_law_from_json", None, _count_law),
    ("sawbridge.renewal", "product_skeleton_law", None, None),
    ("sawbridge.sampler", "dp_partition", None, _count_dp),
    ("sawbridge.sampler", "sample_skeletons", None, _count_sample),
    ("sawbridge.sampler", "uniform_block", None, _count_uniforms),
    ("sawbridge.sampler", "evaluate_process_grid", None, None),
    ("sawbridge.sampler", "ExhaustiveWalkSampler", None, None),
    ("sawbridge.stats", "evaluate_process_grid", None, None),
    ("sawbridge.stats", "build_ensemble", None, None),
    ("sawbridge.stats", "empirical_covariance", None, None),
    ("sawbridge.stats", "fit_bridge_covariance", None, None),
    ("sawbridge.stats", "ks_marginal", None, None),
    ("sawbridge.stats", "gap_statistic", None, None),
    ("sawbridge.stats", "shrinking_statistic", None, None),
    ("sawbridge.cli", "write_csv_report", None, _count_csv_write),
    ("sawbridge.cli", "read_csv_report", None, _count_csv_read),
    ("sawbridge.cli", "write_json_report", None, None),
    ("sawbridge.cli", "read_json_report", None, None),
    ("sawbridge.cli", "read_skeletons", None, None),
)


def main(argv: list[str]) -> int:
    spans_path, parent, run, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON PARENT_ID RUN_ID -- <cli arguments>")
    from sawbridge import cli

    tracer = Tracer(parent, run)
    for module_name, attr, tag, count in PATCHES:
        tracer.wrap(importlib.import_module(module_name), attr, tag, count)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
