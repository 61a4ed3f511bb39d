from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from sawbridge import cli, counting, renewal, sampler, stats
from sawbridge.reporting import (
    canonical_json,
    content_digest,
    read_csv_report,
    read_json_report,
    write_csv_report,
    write_json_report,
)

MASS_ESTIMATE_L12 = -0.5543035797443925


def run(*args: str) -> int:
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, irr_table_l12):
    out = tmp_path_factory.mktemp("pipeline")
    base = ("--d", "2", "--L", "10", "--out", str(out))
    assert run("enumerate", *base) == 0
    assert run("calibrate", *base) == 0
    counting.save_count_table(
        irr_table_l12, out / "counts_d2_L12_irreducible.bin"
    )
    assert run("calibrate", "--d", "2", "--L", "12", "--out", str(out)) == 0
    campaign = (*base, "--n", "5,6", "--replicas", "250", "--seed", "7")
    assert run("sample", *campaign) == 0
    assert run("analyze", *campaign) == 0
    return out


def test_totals_match_known_counts(pipeline_dir):
    config, header, rows = read_csv_report(pipeline_dir / "totals_d2_L10.csv")
    assert config["cutoff"] == 10
    assert header == ["N", "count", "growth"]
    table = {int(r[0]): r for r in rows}
    assert int(table[0][1]) == 1
    assert table[0][2] == ""
    assert int(table[1][1]) == 4
    assert int(table[10][1]) == 44100
    assert float(table[10][2]) == pytest.approx(44100 ** 0.1)


def test_enumerate_cutoff_zero(tmp_path):
    assert run("enumerate", "--d", "2", "--L", "0", "--out", tmp_path) == 0
    _, _, rows = read_csv_report(tmp_path / "totals_d2_L0.csv")
    assert [r[:2] for r in rows] == [["0", "1"]]


def test_enumerate_runs_one_search(tmp_path, searched_roots):
    assert run("enumerate", "--d", "2", "--L", "7", "--out", tmp_path) == 0
    assert len(searched_roots) == len(set(searched_roots)) == 6


def test_calibrate_report(pipeline_dir):
    report = read_json_report(pipeline_dir / "step_law_d2_L12.json")
    assert report["m_hat"] == pytest.approx(MASS_ESTIMATE_L12, rel=1e-12)
    assert 0.0 < report["tail_mass"] < 1.0
    assert 0.0 < report["total_mass"] < 1.0
    law = renewal.step_law_from_json(json.dumps(report["law"]))
    assert renewal.step_law_digest(law) == report["digest"]


def test_mass_estimate_grows_with_cutoff(pipeline_dir):
    m10 = read_json_report(pipeline_dir / "step_law_d2_L10.json")["m_hat"]
    m12 = read_json_report(pipeline_dir / "step_law_d2_L12.json")["m_hat"]
    assert m10 < m12 < 0.0


def test_calibrate_without_cache_exits_2(tmp_path):
    assert run("calibrate", "--d", "2", "--L", "10", "--out", tmp_path) == 2


def test_sample_skeleton_table(pipeline_dir):
    config, header, rows = read_csv_report(pipeline_dir / "skeletons_n5.csv")
    assert config["n"] == 5
    assert config["replicas"] == 250
    assert header == ["replicate", "k", "step_index", "t", "y1"]
    groups: dict[int, list[list[str]]] = {}
    for row in rows:
        groups.setdefault(int(row[0]), []).append(row)
    assert sorted(groups) == list(range(250))
    for steps in groups.values():
        assert len(steps) == int(steps[0][1])
        assert [int(r[2]) for r in steps] == list(range(len(steps)))
        assert sum(int(r[3]) for r in steps) == 5
        assert all(abs(int(r[4])) <= 9 for r in steps)


def test_sample_process_table(pipeline_dir):
    config, header, rows = read_csv_report(pipeline_dir / "process_n6.csv")
    assert header == ["replicate", "t", "Y1"]
    assert len(rows) == 250 * len(config["grid"])
    first = [r for r in rows if int(r[0]) == 0]
    assert [float(r[1]) for r in first] == config["grid"]


def test_sample_rerun_is_byte_identical(pipeline_dir):
    path = pipeline_dir / "skeletons_n5.csv"
    before = path.read_bytes()
    args = ("--d", "2", "--L", "10", "--out", str(pipeline_dir),
            "--n", "5,6", "--replicas", "250", "--seed", "7")
    assert run("sample", *args) == 0
    assert path.read_bytes() == before


def test_sample_thread_invariance(pipeline_dir, tmp_path, monkeypatch):
    # batches of 64 split the 250 replicates into 4 pool tasks, so three
    # real worker processes draw them
    monkeypatch.setattr(sampler, "BATCH_SIZE", 64)
    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path)
    args = ("--d", "2", "--L", "10", "--out", str(tmp_path),
            "--n", "5", "--replicas", "250", "--seed", "7", "--threads", "3")
    assert run("sample", *args) == 0
    assert pools == [3]
    assert multiprocessing.active_children() == []
    for name in ("skeletons_n5.csv", "process_n5.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()


def test_sample_missing_law_exits_2(tmp_path):
    assert run("sample", "--d", "2", "--L", "10", "--out", tmp_path) == 2


def test_sample_leaky_box_exits_3(pipeline_dir):
    args = ("--d", "2", "--L", "10", "--out", str(pipeline_dir),
            "--n", "40", "--replicas", "10", "--box-radius", "9")
    assert run("sample", *args) == 3


def test_analyze_report(pipeline_dir):
    report = read_json_report(pipeline_dir / "report.json")
    assert report["n_fit"] == 6
    assert report["sigma2_hat"] > 0.0
    assert report["rel_rms"] >= 0.0
    assert [row["t"] for row in report["ks"]] == report["config"]["grid"]
    assert all(0.0 <= row["p"] <= 1.0 for row in report["ks"])
    assert all(row["stat"] >= 0.0 for row in report["ks"])
    assert [row["n"] for row in report["gap"]] == [5, 6]
    assert all(0.0 <= row["fraction"] <= 1.0 for row in report["gap"])
    assert isinstance(report["gap_monotone"], bool)
    assert [row["n"] for row in report["shrink"]] == [4, 6]
    means = {row["n"]: row["mean"] for row in report["shrink"]}
    assert 0.0 < means[6] < means[4]


def test_analyze_csv_mirrors(pipeline_dir):
    report = read_json_report(pipeline_dir / "report.json")
    _, _, fit_rows = read_csv_report(pipeline_dir / "fit.csv")
    assert float(fit_rows[0][1]) == report["sigma2_hat"]
    _, _, ks_rows = read_csv_report(pipeline_dir / "ks.csv")
    assert [float(r[2]) for r in ks_rows] == [r["p"] for r in report["ks"]]
    _, _, gap_rows = read_csv_report(pipeline_dir / "gap.csv")
    assert [float(r[1]) for r in gap_rows] == [
        r["fraction"] for r in report["gap"]
    ]
    _, _, shrink_rows = read_csv_report(pipeline_dir / "shrink.csv")
    assert [int(r[0]) for r in shrink_rows] == [4, 6]


CAMPAIGN = ("--d", "2", "--L", "10", "--n", "5,6", "--replicas", "250", "--seed", "7")


def copy_ensembles(pipeline_dir, out) -> None:
    for n in (5, 6):
        shutil.copy(pipeline_dir / f"skeletons_n{n}.csv", out)


def campaign_config(out):
    """The config `analyze` resolves from CAMPAIGN with its files in out."""
    args = cli.build_parser().parse_args(["analyze", *CAMPAIGN, "--out", str(out)])
    return cli.config_from_args(args)


def restamp(path, edit_rows=None, **stamp_changes) -> None:
    """Rewrite a CSV report with a valid body hash: edit_rows edits its rows
    in place and may return stamp fields to change."""
    stamp, header, rows = read_csv_report(path)
    if edit_rows:
        stamp_changes = {**(edit_rows(rows) or {}), **stamp_changes}
    write_csv_report(path, header, rows, {**stamp, **stamp_changes})


def test_read_skeletons_gives_back_the_sampled_arrays(pipeline_dir):
    config = campaign_config(pipeline_dir)
    law_digest, batch = cli.read_skeletons(config, 5)
    law, digest = cli.load_law(config)
    assert law_digest == digest
    sampled = sampler.sample_skeletons(
        law, sampler.dp_partition(law, 5), seed=7, replicates=range(250)
    )
    assert batch.n == sampled.n == 5
    assert np.array_equal(batch.steps, sampled.steps)
    assert np.array_equal(batch.offsets, sampled.offsets)


# sha256 of the skeleton files of a d = 3 campaign (two transverse
# columns, negative cells), recorded before skeleton CSVs were written
# and read as int64 arrays
D3_SKELETON_SHA256 = {
    5: "015bec45a0b1ccba163263b343173fe557c7b568aef6251360d592628d33b022",
    6: "ecde82d355e83c1dab8bf0b7eaf1f201978e54ed92ff6dfbfcda8f89436e08b7",
}


def test_d3_skeletons_round_trip_through_their_csv(tmp_path):
    campaign = ("--d", "3", "--L", "7", "--n", "5,6", "--replicas", "200",
                "--seed", "7", "--out", str(tmp_path))
    for stage in ("enumerate", "calibrate", "sample", "analyze"):
        assert run(stage, *campaign) == 0, stage
    config = cli.config_from_args(cli.build_parser().parse_args(["analyze", *campaign]))
    law, _ = cli.load_law(config)
    for n, digest in D3_SKELETON_SHA256.items():
        path = tmp_path / f"skeletons_n{n}.csv"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        _, batch = cli.read_skeletons(config, n)
        sampled = sampler.sample_skeletons(
            law, sampler.dp_partition(law, n), seed=7, replicates=range(200)
        )
        assert batch.n == sampled.n == n
        assert batch.steps.shape[1] == 3 and (batch.steps < 0).any()
        assert np.array_equal(batch.steps, sampled.steps)
        assert np.array_equal(batch.offsets, sampled.offsets)


def first_two_step_rows(rows) -> tuple[int, int]:
    """Indices of the first two rows of the first skeleton with k >= 2."""
    first = next(i for i, row in enumerate(rows) if int(row[1]) >= 2 and row[2] == "0")
    return first, first + 1


def wrong_k(rows) -> None:
    rows[0][1] = str(int(rows[0][1]) + 1)


def swapped_step_index(rows) -> None:
    a, b = first_two_step_rows(rows)
    rows[a][2], rows[b][2] = rows[b][2], rows[a][2]


def unpinned(rows) -> None:
    rows[0][4] = str(int(rows[0][4]) + 1)


def ragged(rows) -> None:
    del rows[1][-1]


def fractional_cell(rows) -> None:
    rows[0][4] = "1.5"


def empty_cell(rows) -> None:
    rows[0][4] = ""


def letter_cell(rows) -> None:
    rows[0][4] = "a"


def header_only(rows) -> None:
    rows.clear()


def extra_column(rows) -> None:
    for row in rows:
        row.append("0")


def wrapping_steps(rows) -> None:
    # replicate 0 as four steps whose int64 sums wrap to (5, 0)
    big = 2**62
    steps = [(big, big), (big, big), (big, 0), (big + 5, -(2**63))]
    rows[:] = [["0", "4", str(i), str(t), str(y)] for i, (t, y) in enumerate(steps)] + [
        row for row in rows if row[0] != "0"
    ]


def leaky_stamp(rows) -> dict:
    # skeletons stamped as drawn from a box sample would have refused
    return {"leakage": 0.5}


@pytest.mark.parametrize(
    "edit, message",
    [
        (wrong_k, "k column disagrees"),
        (swapped_step_index, "step_index column disagrees"),
        (unpinned, "not pinned"),
        (ragged, "number of columns changed"),
        (fractional_cell, "could not convert string '1.5'"),
        (empty_cell, "could not convert string ''"),
        (letter_cell, "could not convert string 'a'"),
        (header_only, "no rows"),
        (extra_column, "6 cells, header has 5"),
        (wrapping_steps, "a skeleton step is longer than the cutoff 10"),
        (leaky_stamp, "stamped leakage 0.5 is not in"),
    ],
)
def test_analyze_rejects_restamped_skeleton_rows(
    pipeline_dir, tmp_path, capsys, edit, message
):
    copy_ensembles(pipeline_dir, tmp_path)
    restamp(tmp_path / "skeletons_n5.csv", edit)
    with pytest.raises(ValueError, match=message):
        cli.read_skeletons(campaign_config(tmp_path), 5)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def layout_columns_only(stamp, header, rows):
    return stamp, header[:3], [row[:3] for row in rows]


def second_transverse_column(stamp, header, rows):
    return stamp, [*header, "y2"], [[*row, "0"] for row in rows]


# no increment columns at all; pinned 3-d skeletons in a file stamped d = 2
@pytest.mark.parametrize("edit", [layout_columns_only, second_transverse_column])
def test_analyze_rejects_columns_that_do_not_fit_the_stamped_d(
    pipeline_dir, tmp_path, capsys, edit
):
    message = "header does not fit the stamped d 2"
    copy_ensembles(pipeline_dir, tmp_path)
    path = tmp_path / "skeletons_n5.csv"
    stamp, header, rows = edit(*read_csv_report(path))
    write_csv_report(path, header, rows, stamp)
    with pytest.raises(ValueError, match=message):
        cli.read_skeletons(campaign_config(tmp_path), 5)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n", "replicas", "d", "leakage"])
def test_analyze_rejects_a_stamp_without_n_or_replicas(
    pipeline_dir, tmp_path, capsys, field
):
    # the config line is outside the CSV's sha256, so a hand edit gets here
    copy_ensembles(pipeline_dir, tmp_path)
    path = tmp_path / "skeletons_n5.csv"
    stamp, header, rows = read_csv_report(path)
    del stamp[field]
    write_csv_report(path, header, rows, stamp)
    with pytest.raises(ValueError, match=f"stamped {field} None"):
        cli.read_skeletons(campaign_config(tmp_path), 5)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert f"stamped {field} None" in capsys.readouterr().err


# a stamped value of the wrong type is refused before any of it is used
@pytest.mark.parametrize(
    "field, value",
    [
        ("n", [5]),
        ("replicas", "250"),
        ("law_digest", ["0"]),
        ("leakage", True),
        ("leakage", "0.0"),
        ("leakage", math.nan),
    ],
)
def test_analyze_rejects_a_stamped_value_of_the_wrong_type(
    pipeline_dir, tmp_path, capsys, field, value
):
    copy_ensembles(pipeline_dir, tmp_path)
    restamp(tmp_path / "skeletons_n5.csv", **{field: value})
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert f"stamped {field} {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_analyze_tests_each_grid_time_by_its_position(pipeline_dir, tmp_path):
    # two valid grid times closer than 1e-12 apart
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path)
    grid = ("--grid", "0.5,0.5000000000001", "--out", tmp_path)
    assert run("sample", *CAMPAIGN, *grid) == 0
    assert run("analyze", *CAMPAIGN, *grid) == 0
    _, _, rows = read_csv_report(tmp_path / "ks.csv")
    assert [float(row[0]) for row in rows] == [0.5, 0.5000000000001]


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--d", "3", "d"),
        ("--L", "12", "cutoff"),
        ("--beta", "1.5", "beta"),
        ("--replicas", "100", "replicas"),
        ("--seed", "3", "seed"),
        ("--grid", "0.25,0.75", "grid"),
        ("--box-radius", "30", "box_radius"),
    ],
)
def test_analyze_refuses_skeletons_of_another_config(
    pipeline_dir, tmp_path, capsys, flag, value, field
):
    copy_ensembles(pipeline_dir, tmp_path)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, flag, value, "--out", tmp_path) == 2
    assert f"stamped {field} " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_analyze_refuses_a_file_stamped_for_another_span(pipeline_dir, tmp_path, capsys):
    shutil.copy(pipeline_dir / "skeletons_n5.csv", tmp_path / "skeletons_n6.csv")
    shutil.copy(pipeline_dir / "skeletons_n5.csv", tmp_path)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert "stamped n 5 " in capsys.readouterr().err


def test_analyze_refuses_spans_of_different_laws(pipeline_dir, tmp_path, capsys):
    copy_ensembles(pipeline_dir, tmp_path)
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 0
    restamp(tmp_path / "skeletons_n6.csv", law_digest="0" * 64)
    capsys.readouterr()
    assert run("analyze", *CAMPAIGN, "--out", tmp_path) == 2
    assert "law_digest" in capsys.readouterr().err


def test_analyze_holds_one_span_of_skeletons_at_a_time(pipeline_dir, tmp_path, monkeypatch):
    campaign = ("--d", "2", "--L", "10", "--n", "6,4,5", "--replicas", "100",
                "--seed", "3", "--out", tmp_path)
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path)
    assert run("sample", *campaign) == 0
    read, spans, earlier, alive = cli.read_skeletons, [], [], []

    def tracked(config, n):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        digest, batch = read(config, n)
        spans.append(n)
        earlier.append(weakref.ref(batch))
        return digest, batch

    monkeypatch.setattr(cli, "read_skeletons", tracked)
    assert run("analyze", *campaign) == 0
    assert alive == [0, 0, 0]
    assert spans == [4, 5, 6]


@pytest.mark.parametrize(
    "flag, value, field, law_name",
    [
        ("--beta", "1.5", "beta", "step_law_d2_L10.json"),
        ("--L", "12", "cutoff", "step_law_d2_L12.json"),
    ],
)
def test_sample_refuses_a_law_of_another_config(
    pipeline_dir, tmp_path, capsys, flag, value, field, law_name
):
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path / law_name)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, flag, value, "--out", tmp_path) == 2
    assert f"stamped {field} " in capsys.readouterr().err
    assert not (tmp_path / "skeletons_n5.csv").exists()


def test_analyze_missing_ensemble_exits_2(tmp_path):
    assert run("analyze", "--d", "2", "--L", "10", "--out", tmp_path) == 2


def test_oracle_exact_match(pipeline_dir):
    args = ("--d", "2", "--L", "10", "--out", str(pipeline_dir),
            "--n", "5", "--replicas", "300", "--seed", "3")
    assert run("oracle", *args) == 0
    report = read_json_report(pipeline_dir / "oracle_n5.json")
    assert report["max_abs_difference"] == 0.0
    assert report["exact_mass"] == pytest.approx(1.0, abs=1e-12)
    assert report["product_mass"] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= report["tv_sampler_vs_exact"] < 0.5
    _, _, rows = read_csv_report(pipeline_dir / "oracle_law_n5.csv")
    assert len(rows) == report["support"]
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_oracle_tv_is_an_exactly_rounded_sum_in_key_order(pipeline_dir, tmp_path):
    # at this seed the terms summed in the hash order of a set of skeletons
    # read 0.2597791746098572
    shutil.copy(pipeline_dir / "counts_d2_L10_irreducible.bin", tmp_path)
    args = ("--d", "2", "--L", "10", "--out", str(tmp_path),
            "--n", "5", "--replicas", "300", "--seed", "3")
    assert run("oracle", *args) == 0
    irr = counting.load_count_table(tmp_path / "counts_d2_L10_irreducible.bin")
    law = renewal.build_step_law(irr, 1.2, renewal.calibrate_mass(irr, 1.2))
    frequencies = sampler.sample_skeletons(
        law, sampler.dp_partition(law, 5), seed=3, replicates=range(300)
    ).tally()
    exact = counting.exact_conditioned_skeleton_law(2, 5, 1.2, 10)
    terms = [
        abs(frequencies.get(key, 0) / 300 - exact.get(key, 0.0))
        for key in sorted(set(exact) | set(frequencies))
    ]
    tv = read_json_report(tmp_path / "oracle_n5.json")["tv_sampler_vs_exact"]
    assert tv == 0.5 * math.fsum(terms) == 0.2597791746098574


def test_d3_oracle_law_column_spells_the_exact_law_keys(tmp_path):
    args = ("--d", "3", "--L", "7", "--out", str(tmp_path))
    assert run("enumerate", *args) == 0
    assert run("oracle", *args, "--n", "3", "--replicas", "200") == 0
    _, _, rows = read_csv_report(tmp_path / "oracle_law_n3.csv")
    # one t:y1:y2 per increment, increments split by spaces
    skeletons = [[step.split(":") for step in row[0].split(" ")] for row in rows]
    assert {len(step) for skeleton in skeletons for step in skeleton} == {3}
    keys = [tuple(int(c) for step in skeleton for c in step) for skeleton in skeletons]
    assert keys == list(counting.exact_conditioned_skeleton_law(3, 3, 1.2, 7))


def test_oracle_laws_agree_bit_for_bit(tmp_path):
    # a case where summing per-walk weights missed the product law by an ulp
    args = ("--d", "2", "--L", "11", "--beta", "2.0", "--out", str(tmp_path))
    assert run("enumerate", *args) == 0
    assert run("oracle", *args, "--n", "3", "--replicas", "100") == 0
    assert read_json_report(tmp_path / "oracle_n3.json")["max_abs_difference"] == 0.0
    _, header, rows = read_csv_report(tmp_path / "oracle_law_n3.csv")
    assert header[3] == "abs_diff" and rows
    assert all(float(row[3]) == 0.0 for row in rows)


def test_oracle_point_mass(pipeline_dir):
    args = ("--d", "2", "--L", "10", "--out", str(pipeline_dir),
            "--n", "1", "--replicas", "40")
    assert run("oracle", *args) == 0
    report = read_json_report(pipeline_dir / "oracle_n1.json")
    assert report["support"] == 1
    assert report["tv_sampler_vs_exact"] == 0.0
    _, _, rows = read_csv_report(pipeline_dir / "oracle_law_n1.csv")
    assert rows[0][0] == "1:0"


def test_oracle_law_mismatch_exits_3(pipeline_dir, tmp_path, capsys, monkeypatch):
    # one product-law probability moved by 1e-9, far past ORACLE_TOLERANCE
    shutil.copy(pipeline_dir / "counts_d2_L10_irreducible.bin", tmp_path)
    product_skeleton_law = renewal.product_skeleton_law

    def shifted(*args):
        law = product_skeleton_law(*args)
        law[next(iter(law))] += 1e-9
        return law

    monkeypatch.setattr(renewal, "product_skeleton_law", shifted)
    capsys.readouterr()
    args = ("--d", "2", "--L", "10", "--out", str(tmp_path),
            "--n", "5", "--replicas", "300", "--seed", "3")
    assert run("oracle", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith("threshold violation: skeleton law mismatch ")
    assert err.count("\n") == 1 and err.endswith(" exceeds 1.0e-12\n")
    # the report that records the violation is written before the gate
    report = read_json_report(tmp_path / "oracle_n5.json")
    assert report["max_abs_difference"] > 1e-12
    assert report["max_abs_difference"] == pytest.approx(1e-9, rel=1e-6)


def test_oracle_span_cap_exits_2(pipeline_dir):
    args = ("--d", "2", "--L", "10", "--out", str(pipeline_dir), "--n", "7")
    assert run("oracle", *args) == 2


def test_oracle_above_the_d3_span_cap_exits_2(tmp_path, capsys):
    # at d = 3 the exhaustive search is capped at n = 5, and the cap is
    # checked before the search or any output starts
    args = ("--d", "3", "--L", "7", "--out", str(tmp_path))
    assert run("enumerate", *args) == 0
    assert run("oracle", *args, "--n", "6", "--replicas", "100") == 2
    assert "supports n <= 5 at d = 3" in capsys.readouterr().err
    assert not list(tmp_path.glob("oracle*"))


def test_oracle_without_cache_exits_2(tmp_path, capsys):
    args = ("--d", "2", "--L", "6", "--out", str(tmp_path), "--n", "3")
    assert run("oracle", *args) == 2
    assert "run enumerate first" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_refuses_a_cache_of_another_cutoff(pipeline_dir, tmp_path, capsys):
    shutil.copy(
        pipeline_dir / "counts_d2_L10_irreducible.bin",
        tmp_path / "counts_d2_L12_irreducible.bin",
    )
    assert run("calibrate", "--d", "2", "--L", "12", "--out", tmp_path) == 2
    assert "cutoff" in capsys.readouterr().err
    assert not (tmp_path / "step_law_d2_L12.json").exists()


def rehashed_cache(path, edit) -> bytes:
    """A count cache with its body edited and its digest recomputed."""
    body = bytearray(path.read_bytes()[:-32])
    edit(body)
    return bytes(body) + hashlib.sha256(body).digest()


# header: magic (8 bytes), version, d, cutoff (4 each), class code (1),
# config length (4); then the config blob, the endpoint count (8), records
def raise_endpoint_count(body) -> None:
    at = 25 + int.from_bytes(body[21:25], "little")
    count = int.from_bytes(body[at : at + 8], "little")
    body[at : at + 8] = (count + 1).to_bytes(8, "little")


def inflate_config_length(body) -> None:
    body[21:25] = (10**6).to_bytes(4, "little")


def inflate_cutoff(body) -> None:
    body[16:20] = (10**9).to_bytes(4, "little")


def repeat_first_endpoint(body) -> None:
    d, cutoff = (int.from_bytes(body[i : i + 4], "little") for i in (12, 16))
    first = 25 + int.from_bytes(body[21:25], "little") + 8
    second = first + 4 * d + 8 * (cutoff + 1)
    body[second : second + 4 * d] = body[first : first + 4 * d]


def record_layout(body) -> tuple[int, int, int]:
    """The first record's offset, the size of one record, and d."""
    d, cutoff = (int.from_bytes(body[i : i + 4], "little") for i in (12, 16))
    return 25 + int.from_bytes(body[21:25], "little") + 8, 4 * d + 8 * (cutoff + 1), d


def swap_first_two_records(body) -> None:
    first, size, _ = record_layout(body)
    second, end = first + size, first + 2 * size
    body[first:end] = body[second:end] + body[first:second]


def move_last_endpoint_beyond_the_cutoff(body) -> None:
    _, size, d = record_layout(body)
    last = len(body) - size
    body[last : last + 4 * d] = np.array([50] + [0] * (d - 1), dtype="<i4").tobytes()


def zero_first_row(body) -> None:
    first, size, d = record_layout(body)
    body[first + 4 * d : first + size] = bytes(size - 4 * d)


def write_count(body, record: int, length: int, count: int) -> None:
    """Set one count of the record-th record (0 the first)."""
    first, size, d = record_layout(body)
    at = first + record * size + 4 * d + 8 * length
    body[at : at + 8] = count.to_bytes(8, "little", signed=True)


def negate_the_origins_count(body) -> None:
    # the first endpoint is (0, 0), counted once at length 0
    write_count(body, 0, 0, -1)


def count_an_endpoint_below_its_distance(body) -> None:
    # the second endpoint is (1, -9), counted only at length 10
    write_count(body, 1, 8, 1)


def count_the_origin_at_an_odd_length(body) -> None:
    write_count(body, 0, 1, 1)


def empty_the_cache_at_a_huge_cutoff(body) -> None:
    # no records, so the record size agrees with the bytes at any cutoff
    at = 25 + int.from_bytes(body[21:25], "little")
    body[16:20] = (10**6).to_bytes(4, "little")
    body[at:] = bytes(8)


@pytest.mark.parametrize(
    "edit, message",
    [
        (raise_endpoint_count, "disagree with the"),
        (inflate_config_length, "overruns the cache"),
        (inflate_cutoff, "records of 8000000016 bytes disagree"),
        (repeat_first_endpoint, "repeated endpoint"),
        (swap_first_two_records, "out of increasing order"),
        (move_last_endpoint_beyond_the_cutoff, "beyond the cutoff 10"),
        (zero_first_row, "all-zero count row"),
        (negate_the_origins_count, "endpoint (0, 0) has a negative count"),
        (
            count_an_endpoint_below_its_distance,
            "endpoint (1, -9) has a count at a length no walk to it has",
        ),
        (
            count_the_origin_at_an_odd_length,
            "endpoint (0, 0) has a count at a length no walk to it has",
        ),
        (empty_the_cache_at_a_huge_cutoff, "cutoff 1000000 exceeds 24 at d = 2"),
    ],
)
def test_a_malformed_count_cache_exits_2(pipeline_dir, tmp_path, capsys, edit, message):
    path = tmp_path / "counts_d2_L10_irreducible.bin"
    path.write_bytes(rehashed_cache(pipeline_dir / path.name, edit))
    with pytest.raises(ValueError, match=re.escape(message)):
        counting.load_count_table(path)
    capsys.readouterr()
    assert run("calibrate", "--d", "2", "--L", "10", "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "step_law_d2_L10.json").exists()


@pytest.mark.parametrize(
    "keys",
    [("config",), ("law",), ("digest",), ("law", "m_hat"), ("law", "steps", 0, "p")],
    ids=lambda keys: ".".join(map(str, keys)),
)
def test_a_step_law_report_without_its_law_exits_2(pipeline_dir, tmp_path, capsys, keys):
    # a hash-valid report with one field deleted
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    *parents, field = keys
    node = report
    for key in parents:
        node = node[key]
    del node[field]
    report["sha256"] = content_digest(canonical_json(report))
    path.write_text(canonical_json(report), encoding="utf-8")
    message = f"step-law report has no '{field}' field"
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "skeletons_n5.csv").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("law", [], "malformed step-law report"),
        (
            "law",
            {"d": 2, "beta": 1.2, "L": 10, "m_hat": 0.0,
             "steps": [{"t": 2**70, "y": [0], "p": 1.0}]},
            "malformed step-law report: Python int too large to convert to C long",
        ),
        ("config", [], "stamp is not a JSON object"),
        ("config", "d2", "stamp is not a JSON object"),
    ],
    ids=["law_list", "law_huge_t", "config_list", "config_string"],
)
def test_a_step_law_report_of_the_wrong_shape_exits_2(
    pipeline_dir, tmp_path, capsys, field, value, message
):
    # a hash-valid report whose law or stamp is not a JSON object
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    report[field] = value
    report["sha256"] = content_digest(canonical_json(report))
    path.write_text(canonical_json(report), encoding="utf-8")
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "skeletons_n5.csv").exists()


def test_a_step_law_report_whose_digest_is_not_its_laws_exits_2(
    pipeline_dir, tmp_path, capsys
):
    # one step's p moved in its last bits, the report re-hashed but its
    # digest left as calibrate wrote it
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    stamp = report.pop("config")
    report["law"]["steps"][0]["p"] += 1e-12
    write_json_report(path, report, stamp)
    digest = renewal.step_law_digest(renewal.step_law_from_json(json.dumps(report["law"])))
    assert digest != report["digest"]
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=digest):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert report["digest"] in err and digest in err
    assert not (tmp_path / "skeletons_n5.csv").exists()


@pytest.mark.parametrize(
    "field, d, cutoff, beta",
    [("d", 3, 10, 1.2), ("cutoff", 2, 12, 1.2), ("beta", 2, 10, 1.5)],
)
def test_sample_refuses_a_law_whose_own_fields_disagree_with_its_stamp(
    pipeline_dir, tmp_path, capsys, field, d, cutoff, beta
):
    # a real law calibrated at another d, cutoff or beta, written with its
    # own digest under the stamp of the configured law
    irr = counting.enumerate_counts(d, cutoff, counting.WalkClass.IRREDUCIBLE_BRIDGE)
    law = renewal.build_step_law(irr, beta, renewal.calibrate_mass(irr, beta))
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    stamp = report.pop("config")
    report["law"] = json.loads(renewal.step_law_to_json(law))
    report["digest"] = renewal.step_law_digest(law)
    write_json_report(path, report, stamp)
    own = {"d": d, "cutoff": cutoff, "beta": beta}[field]
    message = f"{path}: the law's own {field} {own!r} disagrees with the configured "
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob("skeletons_n*.csv"))


def test_sample_refuses_a_law_that_lists_a_step_twice(pipeline_dir, tmp_path, capsys):
    # a hash-valid report, its digest the law's own, whose first step is
    # listed twice: merged, the steps would still make the stated law
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    stamp = report.pop("config")
    steps = report["law"]["steps"]
    steps.insert(0, dict(steps[0]))
    write_json_report(path, report, stamp)
    message = r"step law steps 0 and 1 are not strictly increasing in (t, y)"
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: malformed step-law report: {message}\n"
    assert not list(tmp_path.glob("skeletons_n*.csv"))


@pytest.mark.parametrize(
    "keys, retype, refusal",
    [
        (("L",), float, "step law L 10.0 is not an integer"),
        (("beta",), str, "step law beta '1.2' is not a number"),
        (("steps", 0, "p"), str, "step law step 0 has p '{}', not a positive number"),
    ],
    ids=["L_float", "beta_string", "p_string"],
)
def test_sample_refuses_a_law_whose_scalars_are_not_json_numbers(
    pipeline_dir, tmp_path, capsys, keys, retype, refusal
):
    # a hash-valid report, its digest the law's own: coerced by int() or
    # float(), its law would be the stated law
    path = tmp_path / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    stamp = report.pop("config")
    *parents, field = keys
    node = report["law"]
    for key in parents:
        node = node[key]
    message = refusal.format(node[field])
    node[field] = retype(node[field])
    write_json_report(path, report, stamp)
    config = cli.resolve_config(None, {"d": 2, "cutoff": 10, "out": str(tmp_path)})
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.load_law(config)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: malformed step-law report: {message}\n"
    assert not list(tmp_path.glob("skeletons_n*.csv"))


def write_two_leg_law(pipeline_dir, out) -> None:
    """A well-formed, rehashed law of two legs of length 2, which pins no
    odd span; its partition table would leak nothing."""
    path = out / "step_law_d2_L10.json"
    report = read_json_report(pipeline_dir / path.name)
    stamp = report.pop("config")
    report["law"]["steps"] = [{"t": 2, "y": [y], "p": 0.5} for y in (-1, 1)]
    law = renewal.step_law_from_json(json.dumps(report["law"]))
    report["digest"] = renewal.step_law_digest(law)
    write_json_report(path, report, stamp)


def test_sample_refuses_a_span_the_law_cannot_reach(pipeline_dir, tmp_path, capsys):
    write_two_leg_law(pipeline_dir, tmp_path)
    capsys.readouterr()
    assert run("sample", *CAMPAIGN, "--out", tmp_path) == 2
    message = "pinned mass at (5, 0̃) is zero; box or law misconfigured"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("skeletons_n*.csv"))


def test_sample_writes_no_span_when_a_later_span_is_unreachable(
    pipeline_dir, tmp_path, capsys
):
    # span 4 is reachable, span 5 is not: neither span's files are written
    write_two_leg_law(pipeline_dir, tmp_path)
    capsys.readouterr()
    args = ("--d", "2", "--L", "10", "--out", tmp_path, "--n", "4,5", "--replicas", "100")
    assert run("sample", *args) == 2
    message = "pinned mass at (5, 0̃) is zero; box or law misconfigured"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("skeletons_n*.csv"))
    assert not list(tmp_path.glob("process_n*.csv"))


def test_sample_writes_no_span_when_a_later_span_leaks(pipeline_dir, tmp_path, capsys):
    # at box radius 9 the L = 10 law leaks 2.6e-08 at span 5, 4.4e-02 at span 40
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path)
    capsys.readouterr()
    args = ("--d", "2", "--L", "10", "--out", tmp_path,
            "--n", "5,40", "--replicas", "100", "--box-radius", "9")
    assert run("sample", *args) == 3
    message = "box truncation leaks 4.388e-02 >= 1.0e-06; increase the radius"
    assert capsys.readouterr().err == f"threshold violation: {message}\n"
    assert not list(tmp_path.glob("skeletons_n*.csv"))
    assert not list(tmp_path.glob("process_n*.csv"))


def test_repeated_spans_exit_2(tmp_path, capsys):
    for command in ("sample", "analyze"):
        assert run(command, "--d", "2", "--L", "10", "--n", "8,8", "--out", tmp_path) == 2
        assert "spans must not repeat" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    capsys.readouterr()


def test_invalid_dimension_exits_2(tmp_path):
    assert run("enumerate", "--d", "7", "--L", "2", "--out", tmp_path) == 2


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"d": 2, "cutoff": 7}', encoding="utf-8")
    assert run(
        "enumerate", "--config", config_path, "--L", "2", "--out", tmp_path
    ) == 0
    assert (tmp_path / "totals_d2_L2.csv").exists()
    assert not (tmp_path / "totals_d2_L7.csv").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("spans", "12"),
        ("spans", 5),
        ("spans", [5, 2.0]),
        ("beta", "1.2"),
        ("grid", 0.5),
        ("replicas", 2.5),
        ("seed", None),
        ("threads", True),
        ("box_radius", 3.7),
    ],
)
def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, field, value):
    # each of these was once taken apart, coerced or stamped as it came
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({field: value}), encoding="utf-8")
    out = tmp_path / "out"
    for stage in ("enumerate", "oracle"):
        assert run(stage, "--config", config_path, "--L", "4", "--out", out) == 2
        assert f"config field {field!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "file"])
def test_an_infinite_beta_exits_2(tmp_path, capsys, route):
    # beta = inf once passed validation, and calibrate then failed with a
    # NaN weight and "no forward irreducible steps; cutoff too small"
    config_path = tmp_path / "config.json"
    config_path.write_text('{"beta": Infinity}', encoding="utf-8")
    beta_args = ("--beta", "inf") if route == "flag" else ("--config", config_path)
    out = tmp_path / "out"
    for stage in ("enumerate", "calibrate"):
        assert run(stage, "--d", "2", "--L", "4", "--out", out, *beta_args) == 2
        assert "beta must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_integer_beta_is_the_flag_float(tmp_path):
    # "beta": 2 was stamped as 2 and hashed into another step-law digest
    config_path = tmp_path / "config.json"
    config_path.write_text('{"beta": 2}', encoding="utf-8")
    laws = []
    for name, beta_args in (("file", ("--config", config_path)), ("flag", ("--beta", "2"))):
        out = tmp_path / name
        args = ("--d", "2", "--L", "8", "--out", out, *beta_args)
        assert run("enumerate", *args) == 0 and run("calibrate", *args) == 0
        laws.append((out / "step_law_d2_L8.json").read_bytes())
    assert laws[0] == laws[1]
    stamp = read_json_report(tmp_path / "file" / "step_law_d2_L8.json")["config"]
    assert type(stamp["beta"]) is float


# one value per config field: its flag and flag text, its JSON value, and
# the config value both must give
FIELD_VALUES = {
    "d": ("--d", "3", 3, 3),
    "beta": ("--beta", "2", 2, 2.0),
    "cutoff": ("--L", "9", 9, 9),
    "spans": ("--n", "5,6", [5, 6], (5, 6)),
    "replicas": ("--replicas", "7", 7, 7),
    "seed": ("--seed", "11", 11, 11),
    "grid": ("--grid", "1e-1,0.25", [0.1, 0.25], (0.1, 0.25)),
    "threads": ("--threads", "2", 2, 2),
    "out": ("--out", "elsewhere", "elsewhere", "elsewhere"),
    "box_radius": ("--box-radius", "4", 4, 4),
}


def test_every_config_field_has_a_flag_value():
    names = [field.name for field in dataclasses.fields(cli.ExperimentConfig)]
    assert list(FIELD_VALUES) == names


@pytest.mark.parametrize("field", list(FIELD_VALUES))
def test_a_flag_and_its_config_file_value_agree(tmp_path, field):
    flag, text, value, expected = FIELD_VALUES[field]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({field: value}), encoding="utf-8")
    parser = cli.build_parser()
    from_flag, from_file = (
        getattr(cli.config_from_args(parser.parse_args(["enumerate", *args])), field)
        for args in ((flag, text), ("--config", str(config_path)))
    )
    assert expected != getattr(cli.ExperimentConfig(), field)
    # equal reprs: the same value, of the same type down to the elements
    assert repr(from_flag) == repr(from_file) == repr(expected)


def test_grid_flag_controls_process_output(pipeline_dir, tmp_path):
    shutil.copy(pipeline_dir / "step_law_d2_L10.json", tmp_path)
    args = ("--d", "2", "--L", "10", "--out", str(tmp_path),
            "--n", "5", "--replicas", "20", "--grid", "0.25,0.75")
    assert run("sample", *args) == 0
    config, _, rows = read_csv_report(tmp_path / "process_n5.csv")
    assert config["grid"] == [0.25, 0.75]
    assert sorted({float(r[1]) for r in rows}) == [0.25, 0.75]


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "sawbridge.cli",
         "enumerate", "--d", "2", "--L", "1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "totals_d2_L1.csv").exists()


def test_help_describes_every_stage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--help")
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, handler in cli.COMMANDS.items():
        assert handler.__doc__, name
        assert f"{name} {' '.join(handler.__doc__.split())}" in text


def test_importing_the_cli_loads_no_process_pool():
    # the pool module is imported only where a stage runs more than one worker
    code = "import sys, sawbridge.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_exhaustive_shrinking_rows_are_unchanged():
    # the means are exactly rounded sums over the walks in any order; summed
    # in the search's depth-first order, n = 4's was 0.13852511981749002
    rows = cli.exhaustive_shrinking(1.2)
    assert repr(rows) == (
        "[{'n': 4, 'mean': 0.1385251198174901, 'max': 0.447213595499958}, "
        "{'n': 6, 'mean': 0.1350922933390161, 'max': 0.3086066999241838}]"
    )
    for row, (n, cutoff) in zip(rows, cli.SHRINK_SPANS):
        paths = oracles.naive_bridges_to(2, n, cutoff)
        weights = np.exp(-1.2 * np.array([len(path) - 1 for path in paths]))
        values = stats.shrinking_statistic(paths, n)
        assert row["mean"] == math.fsum(weights * values) / math.fsum(weights)
        assert row["max"] == values.max()


def test_analyze_and_oracle_call_the_traced_exhaustive_layers(
    pipeline_dir, tmp_path, monkeypatch
):
    # the benchmark times these three by name; a stage that stopped calling
    # one would make its layer time read 0
    calls = Counter()
    for module, name in (
        (sampler, "ExhaustiveWalkSampler"),
        (stats, "shrinking_statistic"),
        (counting, "exact_conditioned_skeleton_law"),
    ):
        def counted(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    campaign = ("--d", "2", "--L", "10", "--out", str(tmp_path),
                "--n", "5,6", "--replicas", "250", "--seed", "7")
    assert run("analyze", *campaign) == 0
    assert calls == {"ExhaustiveWalkSampler": 2, "shrinking_statistic": 2}
    assert run("oracle", *campaign) == 0
    assert calls["exact_conditioned_skeleton_law"] == 1


# sha256 of every file a small campaign writes, recorded before the
# option and code-path deletions of the enumerate..oracle stages; a
# refactor that keeps the stages' output must keep these bytes.  report.json
# and shrink.csv were recorded again when the exhaustive shrinking mean
# became an exactly rounded sum, which moved n = 4's by an ulp
GOLDEN_ARTIFACT_SHA256 = {
    "counts_d2_L9_all.bin": "1a6a2c43767d14e6b9d0b7e37b26b131f138597f7644c91627dd3e034db63aa3",
    "counts_d2_L9_bridge.bin": "3ae2a5b2bcfc049f2a0ebb4a0fe1b9f0ffce28c909b4206c811d9eaf945d661e",
    "counts_d2_L9_irreducible.bin": "5431c268190e3a2d43f9430bbb6a97671f47ce1baf6d0077a1247d4e8f4cc21c",
    "fit.csv": "af9f97c4ff878d273be2af3299acdbfbfa6f61463f427f6ce4fa2cc3502b84a6",
    "gap.csv": "57e2054a2c31fa597e2b5dda619c1c7b67018075184dbad96306298570771ef0",
    "ks.csv": "32c3378e6ec4a4bb9acb36b7d7c1dd6ce325c4110d85a428cf161aee11c31744",
    "oracle_law_n5.csv": "347b442bf1dc6311e64cdcc95b31fcfa12e7e842c8583bb0ce5329fbde6d1e0d",
    "oracle_n5.json": "39c289f1e8c7e086bbcb61d8955513d6da3ef2edd7ef63f85c808a264095864c",
    "process_n5.csv": "f36c15ba67bc1e08e28e8d5dcc49f5908d09eebd7c5c7159c450739991731dfc",
    "process_n6.csv": "8f4a4228141854f1d4592546453bbc605786cf71679e7128646c0a48eced4bc5",
    "report.json": "82dd2e199ed83809abaa9f6b38a33e0f8a2669df29d7eec9d29b6f51d224b6ed",
    "shrink.csv": "ca689fb5f94f315f567efcb24f45ad5f3baad5eb06e5c404b035d5a6afbf8790",
    "skeletons_n5.csv": "3321681d2f14d7d4e1ddf17022d8d9374f712ad0f7c07f34e0214d4e00718f3a",
    "skeletons_n6.csv": "ab20eba8aaddd33f9cac39f05f300ba4e5eb63c0de55fc7119ce19fe22a2b2e4",
    "step_law_d2_L9.json": "0b38f8c27e29a2dacae0e8fd7c7722a9ed26ced5d15535e8582b3fcc538d7265",
    "totals_d2_L9.csv": "18c777ec184bb6c0923cce5c0dab148ebb3809961aca49801eb34b5afd8fed28",
}


def test_campaign_artifacts_match_golden_digests(tmp_path):
    campaign = ("--d", "2", "--L", "9", "--beta", "1.2", "--n", "5,6",
                "--replicas", "200", "--seed", "7", "--out", str(tmp_path))
    for stage in ("enumerate", "calibrate", "sample", "analyze", "oracle"):
        assert run(stage, *campaign) == 0, stage
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN_ARTIFACT_SHA256
