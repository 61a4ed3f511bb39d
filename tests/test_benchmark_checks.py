"""The benchmark checks every artifact a timed stage writes; running those
same checks here on a small campaign makes a change that would fail them
fail the tier-1 suite first."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from sawbridge import cli
from sawbridge.config import DEFAULT_GRID

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
STAGES = ("enumerate", "calibrate", "sample", "analyze", "oracle")
CUTOFF, SPANS, REPLICAS = 9, (5, 6), 200


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("campaign")
    campaign = ("--d", "2", "--L", str(CUTOFF), "--n", ",".join(map(str, SPANS)),
                "--replicas", str(REPLICAS), "--out", str(out))
    for stage in STAGES:
        assert cli.main([stage, *campaign]) == 0, stage
    return out


@pytest.mark.parametrize("stage", STAGES)
def test_stage_artifacts_pass_the_benchmark_checks(campaign_dir, stage):
    checks = load_checks()
    names = checks.stage_artifacts(stage, CUTOFF, SPANS)
    assert names
    for name in names:
        checks.verify_artifact(campaign_dir / name, REPLICAS, len(DEFAULT_GRID))
