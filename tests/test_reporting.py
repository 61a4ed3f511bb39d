from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from sawbridge import counting, reporting
from sawbridge.reporting import (
    ReportFormatError,
    canonical_json,
    content_digest,
    read_csv_report,
    read_int_csv_report,
    read_json_report,
    write_csv_report,
    write_json_report,
)


def test_canonical_json_sorts_keys_and_ends_with_newline():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_canonical_json_keeps_non_ascii():
    assert "β" in canonical_json({"label": "β"})


def test_content_digest_is_stable_hex():
    digest = content_digest("payload")
    assert digest == content_digest("payload")
    assert len(digest) == 64
    assert digest != content_digest("payload2")


def test_json_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    payload = {"value": 0.125, "rows": [1, 2]}
    config = {"seed": 3}
    write_json_report(path, payload, config)
    loaded = read_json_report(path)
    assert loaded["value"] == 0.125
    assert loaded["rows"] == [1, 2]
    assert loaded["config"] == config
    assert "sha256" not in loaded


def test_json_report_rejects_reserved_keys(tmp_path):
    with pytest.raises(ValueError):
        write_json_report(tmp_path / "r.json", {"config": 1}, {})
    with pytest.raises(ValueError):
        write_json_report(tmp_path / "r.json", {"sha256": "x"}, {})


def test_json_report_detects_tampering(tmp_path):
    path = tmp_path / "report.json"
    write_json_report(path, {"value": 1}, {"seed": 0})
    text = path.read_text(encoding="utf-8").replace('"value": 1', '"value": 2')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ReportFormatError):
        read_json_report(path)


def test_csv_report_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        [0, 0.5, "a"],
        [1, 1.0 / 3.0, "b"],
        [5, 0.1, "label"],
        [2, np.float64(0.25), "c"],
    ]
    write_csv_report(path, ["i", "x", "tag"], rows, {"seed": 1})
    # cells are written with str: repr's shortest round-trip digits for floats
    assert path.read_bytes().split(b"\n")[2:] == [
        b"i,x,tag",
        b"0,0.5,a",
        b"1,0.3333333333333333,b",
        b"5,0.1,label",
        b"2,0.25,c",
        b"",
    ]
    config, header, loaded = read_csv_report(path)
    assert config == {"seed": 1}
    assert header == ["i", "x", "tag"]
    assert [int(r[0]) for r in loaded] == [0, 1, 5, 2]
    assert [float(r[1]) for r in loaded] == [0.5, 1.0 / 3.0, 0.1, 0.25]
    assert [r[2] for r in loaded] == ["a", "b", "label", "c"]


INT64_EDGES = [0, -1, 2**62, -(2**62), np.iinfo(np.int64).max, np.iinfo(np.int64).min]


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (50, 1), (400, 5), (reporting.INT_ROWS_PER_BLOCK + 3, 2)]
)
def test_int_table_is_written_as_its_row_lists(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    # every decimal width from 1 to 19 digits, both signs
    table = rng.integers(-9, 10, size=shape) * 10 ** rng.integers(0, 18, size=shape)
    table.ravel()[: len(INT64_EDGES)] = INT64_EDGES[: table.size]
    header = [f"c{j}" for j in range(shape[1])]
    write_csv_report(tmp_path / "array.csv", header, table, {"seed": 1})
    write_csv_report(tmp_path / "lists.csv", header, table.tolist(), {"seed": 1})
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
    config, names, loaded = read_int_csv_report(tmp_path / "array.csv")
    assert (config, names) == ({"seed": 1}, header)
    assert loaded.dtype == np.int64
    assert np.array_equal(loaded, table)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["1", "2"], ["3"]], "number of columns changed"),
        ([["1", "1.5"]], "could not convert string '1.5'"),
        ([["1", ""]], "could not convert string ''"),
        ([["a", "2"]], "could not convert string 'a'"),
        ([], "no rows"),
        ([["1", "2", "3"]], "3 cells, header has 2"),
    ],
)
def test_int_table_rejects_cells_that_are_not_one_integer_per_column(
    tmp_path, rows, message
):
    path = tmp_path / "table.csv"
    write_csv_report(path, ["a", "b"], rows, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_int_csv_report(path)


def test_int_table_detects_tampering(tmp_path):
    path = tmp_path / "table.csv"
    write_csv_report(path, ["a"], np.array([[1]]), {})
    path.write_bytes(path.read_bytes().replace(b"\n1", b"\n2"))
    with pytest.raises(ReportFormatError, match="sha256 mismatch"):
        read_int_csv_report(path)


def test_csv_report_uses_lf_only(tmp_path):
    path = tmp_path / "table.csv"
    write_csv_report(path, ["a"], [[1], [2]], {})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_report_detects_tampering(tmp_path):
    path = tmp_path / "table.csv"
    write_csv_report(path, ["a"], [[1]], {})
    raw = path.read_text(encoding="utf-8").replace("\n1", "\n2")
    path.write_text(raw, encoding="utf-8")
    with pytest.raises(ReportFormatError):
        read_csv_report(path)


def test_reports_rewrite_byte_identical(tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "table.csv"
    for _ in range(2):
        write_json_report(json_path, {"x": [0.1, 0.2]}, {"seed": 2})
        write_csv_report(csv_path, ["v"], [[0.1], [0.2]], {"seed": 2})
        if _ == 0:
            first = (json_path.read_bytes(), csv_path.read_bytes())
    assert (json_path.read_bytes(), csv_path.read_bytes()) == first


class HalfWriter:
    """A file whose write stores the first half of the data, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data: bytes) -> None:
        self.handle.write(data[: len(data) // 2])
        raise OSError("device full")


def write_artifact(kind: str, path, version: int) -> None:
    if kind == "csv":
        write_csv_report(path, ["v"], [[version]] * 50, {"version": version})
    elif kind == "json":
        write_json_report(path, {"rows": [version] * 50}, {"version": version})
    else:
        table = counting.enumerate_counts(2, 2 + version, counting.WalkClass.ALL)
        counting.save_count_table(table, path, config={"version": version})


@pytest.mark.parametrize("kind", ["csv", "json", "cache"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    write_artifact(kind, path, 1)
    before = path.read_bytes()
    real_open = open
    monkeypatch.setattr(
        reporting, "open", lambda file, mode: HalfWriter(real_open(file, mode)), raising=False
    )
    with pytest.raises(OSError, match="device full"):
        write_artifact(kind, path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    write_artifact(kind, path, 2)
    assert path.read_bytes() != before
