"""Tests of the benchmark itself, on tiny workloads (L <= 9, a few hundred replicas).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from sawbridge.reporting import write_csv_report  # noqa: E402

TINY = {
    "long-span": dict(cutoff=9, spans=(16,), replicas=200),
    "short-span": dict(cutoff=9, spans=(5,), replicas=300),
    "deep-enum": dict(cutoff=9),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A checkout stand-in: the real sources, a private work directory."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.setattr(bench, "SETUP_PASSES", 1)
    return tmp_path


def test_spec_names_every_metric_and_workload():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == layers.BETTER


@pytest.mark.parametrize("name", list(TINY))
def test_timed_run_emits_every_end_to_end_metric(root, name):
    result = bench.Runner(root, tiny(name), seed=3, trace=False).run(0.0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["long-span", "short-span"])
def test_traced_run_emits_every_layer_metric(root, name):
    runner = bench.Runner(root, tiny(name), seed=3, trace=True)
    result = runner.run(0.0)
    assert result["correct"], runner.problems
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == layers.UNITS
    assert metrics["sampler.replicate_steps"]["value"] > 0
    assert metrics["rng.streams"]["value"] == tiny(name).replicas * len(tiny(name).spans)
    steps = metrics["sampler.replicate_steps"]["value"]
    assert metrics["sampler.state_reuse"]["value"] == steps / metrics["sampler.unique_states"]["value"]
    trace = json.loads(runner.trace_file.read_text())
    assert trace["spans"] and all(
        {"id", "name", "start_ns", "end_ns", "parent", "run"} <= set(s) for s in trace["spans"])
    assert trace["summary"]["sawbridge.sampler.sample_skeletons"]["calls"] >= 1


def test_exact_counts_repeat_across_runs(root):
    first = bench.Runner(root, tiny("deep-enum"), seed=1, trace=True).run(0.0)
    second = bench.Runner(root, tiny("deep-enum"), seed=1, trace=True).run(0.0)
    assert first["correct"] and second["correct"]
    for name in layers.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name]


def test_corrupted_artifact_counts_as_failure(root, monkeypatch):
    original = bench.Runner.run_stage

    def corrupting(self, stage, run_id, traced):
        result = original(self, stage, run_id, traced)
        if stage == "sample":
            path = self.out / "skeletons_n16.csv"
            path.write_text(path.read_text().replace("\n0,", "\n1,", 1))
        return result

    monkeypatch.setattr(bench.Runner, "run_stage", corrupting)
    runner = bench.Runner(root, tiny("long-span"), seed=3, trace=False)
    result = runner.run(0.0)
    assert not result["correct"] and result["failed"] == 1
    assert "sha256 mismatch" in runner.problems[0]


def test_digest_drift_between_runs_counts_as_failure(root):
    assert bench.Runner(root, tiny("short-span"), seed=2, trace=False).run(0.0)["correct"]
    runner = bench.Runner(root, tiny("short-span"), seed=2, trace=False)
    record = runner.record_path()
    stored = json.loads(record.read_text())
    stored["digests"]["oracle_n5.json"] = "0" * 64
    record.write_text(json.dumps(stored))
    result = runner.run(0.0)
    assert not result["correct"] and result["failed"] == 1


def test_unpinned_skeleton_is_rejected(tmp_path):
    path = tmp_path / "skeletons_n4.csv"
    rows = [[0, 2, 0, 1, 1], [0, 2, 1, 3, 0]]  # ends at (4, 1), not (4, 0)
    write_csv_report(path, ["replicate", "k", "step_index", "t", "y1"], rows,
                     {"n": 4, "leakage": 0.0})
    with pytest.raises(checks.CheckError, match="on the axis"):
        checks.verify_artifact(path, replicas=1, grid_points=9)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "long-span", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
