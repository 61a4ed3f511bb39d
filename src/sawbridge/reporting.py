"""Deterministic, self-describing output files.

Every artifact embeds the resolved configuration and a content hash:

* JSON reports are canonical (sorted keys, two-space indent, LF) with a
  sha256 field covering everything except the hash itself;
* CSV tables are UTF-8, comma-separated, decimal-point, LF-terminated,
  led by two comment lines carrying the configuration and the sha256 of
  everything after the hash line.

Identical inputs therefore produce byte-identical files, which makes
reruns diffable in CI, and any tampering is detectable.  CSV cells are
written with str, which for floats is repr, the shortest digits that
round-trip; an integer table given as a 2-D ndarray is formatted with %d,
which gives the same bytes as str, and read_int_csv_report parses such a
table straight into an int64 array.  Every file is written atomically
(see write_atomic), into a directory it creates if need be, so an
interrupted run leaves the previous file or the new one under the final
name, never a part of one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# rows per % operation of an integer table, which bounds the Python ints
# alive at once
INT_ROWS_PER_BLOCK = 65536


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it onto path;
    path's directory is created first if it is missing.

    The rename is atomic, so readers and later runs see either the old
    file or the complete new one; a failed write removes its temporary
    file.  Nothing is synced to disk: this guards against an interrupted
    process, not against a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_json_report(path: str | Path, payload: dict, config: dict) -> None:
    if "sha256" in payload or "config" in payload:
        raise ValueError("payload must not predefine config or sha256")
    body = dict(payload)
    body["config"] = config
    digest = content_digest(canonical_json(body))
    body["sha256"] = digest
    write_atomic(path, canonical_json(body).encode("utf-8"))


def read_json_report(path: str | Path) -> dict:
    body = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(body, dict) or "sha256" not in body:
        raise ValueError(f"{path}: not a hashed JSON report")
    stated = body.pop("sha256")
    actual = content_digest(canonical_json(body))
    if stated != actual:
        raise ValueError(f"{path}: sha256 mismatch")
    return body


def write_csv_report(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence] | np.ndarray,
    config: dict,
) -> None:
    """Write a hash-stamped CSV table.

    rows is either a sequence of rows, whose cells csv writes with str,
    or a 2-D integer ndarray, whose body is formatted one % operation per
    INT_ROWS_PER_BLOCK rows.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        line = "%d," * (rows.shape[1] - 1) + "%d\n"
        for start in range(0, len(rows), INT_ROWS_PER_BLOCK):
            block = rows[start : start + INT_ROWS_PER_BLOCK]
            buffer.write((line * len(block)) % tuple(block.ravel().tolist()))
    else:
        writer.writerows(rows)
    table = buffer.getvalue()
    config_line = json.dumps(config, sort_keys=True, ensure_ascii=False)
    text = (
        f"# config: {config_line}\n"
        f"# sha256: {content_digest(table)}\n"
        f"{table}"
    )
    write_atomic(path, text.encode("utf-8"))


def _checked_table(path: str | Path) -> tuple[dict, bytes]:
    """The config of a CSV report and its table bytes, once the table
    matches the stamped sha256."""
    parts = Path(path).read_bytes().split(b"\n", 2)
    if len(parts) < 3 or not parts[0].startswith(b"# config: "):
        raise ValueError(f"{path}: missing config line")
    if not parts[1].startswith(b"# sha256: "):
        raise ValueError(f"{path}: missing hash line")
    config_line, hash_line, table = parts
    config = json.loads(config_line[len(b"# config: "):].decode("utf-8"))
    stated = hash_line[len(b"# sha256: "):].decode("utf-8")
    if hashlib.sha256(table).hexdigest() != stated:
        raise ValueError(f"{path}: sha256 mismatch")
    return config, table


def read_csv_report(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    config, table = _checked_table(path)
    reader = csv.reader(io.StringIO(table.decode("utf-8")))
    parsed = [row for row in reader if row]
    if not parsed:
        raise ValueError(f"{path}: empty table")
    return config, parsed[0], parsed[1:]


def read_int_csv_report(path: str | Path) -> tuple[dict, list[str], np.ndarray]:
    """The config, header and int64 body of a CSV report whose every row
    holds one decimal integer per header column."""
    config, table = _checked_table(path)
    head, _, body = table.partition(b"\n")
    header = next(csv.reader([head.decode("utf-8")]))
    if not header or not body.strip():
        raise ValueError(f"{path}: no header or no rows")
    try:
        values = np.loadtxt(
            io.BytesIO(body), delimiter=",", dtype=np.int64, comments=None, ndmin=2
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if values.shape[1] != len(header):
        raise ValueError(
            f"{path}: rows have {values.shape[1]} cells, header has {len(header)}"
        )
    return config, header, values
