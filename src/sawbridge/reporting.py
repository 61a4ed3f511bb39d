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
round-trip.  Every file is written atomically (see write_atomic), so an
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


class ReportFormatError(ValueError):
    """A report file does not match its embedded hash or layout."""


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it onto path.

    The rename is atomic, so readers and later runs see either the old
    file or the complete new one; a failed write removes its temporary
    file.  Nothing is synced to disk: this guards against an interrupted
    process, not against a power loss.
    """
    path = Path(path)
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
        raise ReportFormatError(f"{path}: not a hashed JSON report")
    stated = body.pop("sha256")
    actual = content_digest(canonical_json(body))
    if stated != actual:
        raise ReportFormatError(f"{path}: sha256 mismatch")
    return body


def write_csv_report(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    config: dict,
) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows(rows)
    table = buffer.getvalue()
    config_line = json.dumps(config, sort_keys=True, ensure_ascii=False)
    text = (
        f"# config: {config_line}\n"
        f"# sha256: {content_digest(table)}\n"
        f"{table}"
    )
    write_atomic(path, text.encode("utf-8"))


def read_csv_report(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if len(lines) < 3 or not lines[0].startswith("# config: "):
        raise ReportFormatError(f"{path}: missing config line")
    if not lines[1].startswith("# sha256: "):
        raise ReportFormatError(f"{path}: missing hash line")
    config = json.loads(lines[0][len("# config: "):])
    stated = lines[1][len("# sha256: "):]
    table = "\n".join(lines[2:])
    if content_digest(table) != stated:
        raise ReportFormatError(f"{path}: sha256 mismatch")
    reader = csv.reader(io.StringIO(table))
    parsed = [row for row in reader if row]
    if not parsed:
        raise ReportFormatError(f"{path}: empty table")
    return config, parsed[0], parsed[1:]
