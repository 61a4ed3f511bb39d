"""Per-layer metrics from the spans and counters of traced stage processes.

A traced pass (the set-up, or one iteration of the timed stages) yields a
list of spans and two counter maps.  `pass_metrics` turns one pass into
the per-layer metrics; `combine` adds the set-up pass to the median of
the timed passes.  Every metric is emitted on every workload: a layer
that a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric -> the spans whose total duration it sums, as (name, tag or None)
SPAN_TIMES = {
    "counting.enumerate_all_s": [("sawbridge.counting.enumerate_counts", "all")],
    "counting.enumerate_bridge_s": [("sawbridge.counting.enumerate_counts", "bridge")],
    "counting.enumerate_irreducible_s": [
        ("sawbridge.counting.enumerate_counts", "irreducible")
    ],
    "counting.cache_save_s": [("sawbridge.counting.save_count_table", None)],
    "counting.cache_load_s": [("sawbridge.counting.load_count_table", None)],
    "counting.exact_law_s": [("sawbridge.counting.exact_conditioned_skeleton_law", None)],
    "renewal.calibrate_s": [("sawbridge.renewal.calibrate_mass", None)],
    "renewal.build_law_s": [("sawbridge.renewal.build_step_law", None)],
    "renewal.product_law_s": [("sawbridge.renewal.product_skeleton_law", None)],
    "sampler.dp_s": [("sawbridge.sampler.dp_partition", None)],
    "sampler.sample_s": [("sawbridge.sampler.sample_skeletons", None)],
    "sampler.process_grid_s": [
        ("sawbridge.sampler.evaluate_process_grid", None),
        ("sawbridge.stats.evaluate_process_grid", None),
    ],
    "sampler.exhaustive_build_s": [("sawbridge.sampler.ExhaustiveWalkSampler", None)],
    "rng.uniform_block_s": [("sawbridge.sampler.uniform_block", None)],
    "stats.build_ensemble_s": [("sawbridge.stats.build_ensemble", None)],
    "stats.gap_s": [("sawbridge.stats.gap_statistic", None)],
    "stats.fit_s": [
        ("sawbridge.stats.empirical_covariance", None),
        ("sawbridge.stats.fit_bridge_covariance", None),
    ],
    "stats.ks_s": [("sawbridge.stats.ks_marginal", None)],
    "stats.shrink_s": [("sawbridge.stats.shrinking_statistic", None)],
    "reporting.csv_write_s": [("sawbridge.cli.write_csv_report", None)],
    "reporting.csv_read_s": [("sawbridge.cli.read_csv_report", None)],
}
# metric -> span name whose self time (duration minus child spans) it sums
SELF_TIMES = {"cli.read_skeletons_s": "sawbridge.cli.read_skeletons"}
# exact counters, summed over calls (dp_cell_updates is computed from sizes)
SUMS = {
    "counting.walks_counted": "count",
    "counting.cache_bytes": "B",
    "counting.exact_law_support": "count",
    "sampler.dp_cell_updates": "count",
    "sampler.replicate_steps": "count",
    "sampler.unique_states": "count",
    "rng.streams": "count",
    "rng.draws": "count",
    "reporting.rows_written": "count",
    "reporting.rows_read": "count",
    "reporting.bytes_written": "B",
}
# exact counters, the largest value over calls
MAXIMA = {
    "renewal.law_support": "count",
    "sampler.dp_radius": "count",
    "sampler.rounds_max": "count",
}
COUNTERS = {**SUMS, **MAXIMA}
DERIVED = {"sampler.state_reuse": "ratio", "trace.overhead_s": "s"}

UNITS = {
    **{name: "s" for name in (*SPAN_TIMES, *SELF_TIMES)},
    **COUNTERS,
    **DERIVED,
}
# work counts are better lower; reuse of sampler states is better higher
BETTER = {name: "higher" if name == "sampler.state_reuse" else "lower" for name in UNITS}


def span_summary(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds per span name (tagged names split)."""
    covered: dict[str, int] = defaultdict(int)
    for span in spans:
        covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    summary: dict[str, dict] = {}
    for span in spans:
        key = span["name"] + (f"[{span['tag']}]" if span.get("tag") else "")
        entry = summary.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span["end_ns"] - span["start_ns"]
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - covered[span["id"]]) / 1e9
    return summary


def pass_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before derived ratios."""
    spans: list[dict] = []
    counters: dict[str, int] = defaultdict(int)
    maxima: dict[str, int] = defaultdict(int)
    for trace in traces:
        spans += trace["spans"]
        for name, value in trace["counters"].items():
            counters[name] += value
        for name, value in trace["maxima"].items():
            maxima[name] = max(maxima[name], value)
    summary = span_summary(spans)
    metrics: dict[str, float] = {}
    for metric, sources in SPAN_TIMES.items():
        metrics[metric] = sum(
            summary.get(name + (f"[{tag}]" if tag else ""), {}).get("total_s", 0.0)
            for name, tag in sources
        )
    for metric, name in SELF_TIMES.items():
        metrics[metric] = summary.get(name, {}).get("self_s", 0.0)
    for metric in SUMS:
        metrics[metric] = counters.get(metric, 0)
    for metric in MAXIMA:
        metrics[metric] = maxima.get(metric, 0)
    return metrics


def combine(setup: dict[str, float], timed: list[dict[str, float]], overhead_s: float) -> dict:
    """Set-up pass plus the median timed pass, then the derived metrics."""
    metrics = {}
    for name in (*SPAN_TIMES, *SELF_TIMES, *COUNTERS):
        middle = statistics.median(p[name] for p in timed) if timed else 0
        if name in MAXIMA:
            metrics[name] = max(setup[name], middle)
        else:
            metrics[name] = setup[name] + middle
    for name in COUNTERS:
        if float(metrics[name]).is_integer():
            metrics[name] = int(metrics[name])
    unique = metrics["sampler.unique_states"]
    metrics["sampler.state_reuse"] = metrics["sampler.replicate_steps"] / unique if unique else 0.0
    metrics["trace.overhead_s"] = overhead_s
    return metrics
