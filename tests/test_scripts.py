"""Smoke tests: each script under scripts/ runs to completion at a small size."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "name,args",
    [
        ("decay_diagnostics.py", ("--L", "8")),
        ("mass_convergence.py", ("--max-L", "8")),
    ],
)
def test_script_exits_cleanly(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr


def test_mass_convergence_refuses_an_infinite_beta():
    # the message names beta, not the cutoff
    result = run_script("mass_convergence.py", "--beta", "inf", "--max-L", "6")
    assert result.returncode != 0
    assert result.stderr.strip().endswith("beta must be positive and finite, got inf")
    assert "cutoff too small" not in result.stderr


def test_decay_rate_header_names_the_printed_values():
    lines = run_script("decay_diagnostics.py", "--L", "8").stdout.splitlines()
    assert lines[1] == "slab decay rates (log weight / n)"
    # the first row is n = 1, where log(weight) / n is below zero
    assert lines[3].split()[0] == "1" and float(lines[3].split()[1]) < 0


def test_campaign_script_runs_every_stage(tmp_path):
    result = run_script(
        "run_campaign.py", "--L", "9", "--n", "5,6", "--replicas", "200",
        "--out", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert "== oracle ==" in result.stdout


def test_campaign_script_reads_spans_from_the_config_file(tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text('{"d": 2, "cutoff": 7, "spans": [5], "replicas": 200}')
    result = run_script(
        "run_campaign.py", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert result.returncode == 0, result.stderr
    assert "== oracle ==" in result.stdout
    assert (tmp_path / "out" / "oracle_n5.json").exists()
