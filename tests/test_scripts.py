"""Smoke tests: each script under scripts/ runs to completion at a small size."""

from __future__ import annotations

import hashlib
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
    stdout = run_script("decay_diagnostics.py", "--L", "8").stdout
    lines = stdout.splitlines()
    assert lines[1] == "slab decay rates (log weight / n)"
    # the first row is n = 1, where log(weight) / n is below zero
    assert lines[3].split()[0] == "1" and float(lines[3].split()[1]) < 0
    # the whole output, byte for byte
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "08f8bc2159691643e7386e3ba152ef1574286502cec486d7a664cc3a8c50f84d"
    )
    args = ("--d", "3", "--L", "9", "--beta", "1.8")
    stdout = run_script("decay_diagnostics.py", *args).stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "1d66b78f0277b447ae4ea70a6d2b4ce6385a7af57a48c47e408ff5e950fcd443"
    )


@pytest.mark.parametrize(
    "name,args,message",
    [
        ("decay_diagnostics.py", ("--L", "30"),
         "cutoff 30 exceeds 24, the largest enumerated at d = 2"),
        ("mass_convergence.py", ("--min-L", "0", "--max-L", "2"),
         "no forward irreducible steps; cutoff too small"),
    ],
)
def test_a_script_refuses_a_bad_argument_with_one_line(name, args, message):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert "Traceback" not in result.stderr


def test_campaign_script_runs_every_stage(tmp_path):
    result = run_script(
        "run_campaign.py", "--L", "9", "--n", "5,6", "--replicas", "200",
        "--out", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert "== oracle ==" in result.stdout


def test_campaign_script_skips_an_oracle_whose_span_exceeds_the_cutoff(tmp_path):
    # no bridge reaches (5, 0) within 4 steps, so oracle could only refuse
    result = run_script(
        "run_campaign.py", "--L", "4", "--n", "5,6", "--replicas", "200",
        "--out", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert "== analyze ==" in result.stdout
    assert "== oracle ==" not in result.stdout


def test_campaign_script_reads_spans_from_the_config_file(tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text('{"d": 2, "cutoff": 7, "spans": [5], "replicas": 200}')
    result = run_script(
        "run_campaign.py", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert result.returncode == 0, result.stderr
    assert "== oracle ==" in result.stdout
    assert (tmp_path / "out" / "oracle_n5.json").exists()
