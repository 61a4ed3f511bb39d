"""Correctness checks on the artifacts a sawbridge CLI stage leaves behind.

Every check reads through the program's own verifying readers
(`sawbridge.reporting.read_csv_report`, `read_json_report`,
`sawbridge.counting.load_count_table`), so a file whose sha256 stamp no
longer matches its content fails here exactly as it would fail a user.
On top of the stamp, each artifact kind gets the check that would catch a
wrong answer: exact walk counts against the known series, pinned
skeletons, leakage and oracle gates, step-law normalisation.

`verify_artifact` returns the artifact's table digest: the `# sha256:`
line of a CSV, the `sha256` field of a JSON report, or the trailing
SHA-256 of a binary count cache.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from sawbridge import counting
from sawbridge.reporting import read_csv_report, read_json_report

# the acceptance bounds, fixed here rather than read from the program so
# that a change to the program's own gates cannot loosen the benchmark
MAX_LEAKAGE = 1e-6
ORACLE_TOLERANCE = 1e-12
LAW_MASS_TOLERANCE = 1e-10
# self-avoiding walks on Z^2 by length (OEIS A001411), N = 0..17
SAW_COUNTS_2D = (
    1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292,
    324932, 881500, 2374444, 6416596, 17245332, 46466676,
)


class CheckError(Exception):
    """An artifact is missing, fails its stamp, or holds a wrong result."""


def stage_artifacts(stage: str, cutoff: int, spans: tuple[int, ...]) -> list[str]:
    """File names a CLI stage writes into its output directory (d = 2)."""
    if stage == "enumerate":
        return [
            *(f"counts_d2_L{cutoff}_{c.value}.bin" for c in counting.WalkClass),
            f"totals_d2_L{cutoff}.csv",
        ]
    if stage == "calibrate":
        return [f"step_law_d2_L{cutoff}.json"]
    if stage == "sample":
        return [f"{kind}_n{n}.csv" for n in spans for kind in ("skeletons", "process")]
    if stage == "analyze":
        return ["report.json", "fit.csv", "ks.csv", "gap.csv", "shrink.csv"]
    if stage == "oracle":
        n = min(spans)
        return [f"oracle_n{n}.json", f"oracle_law_n{n}.csv"]
    raise ValueError(f"unknown stage {stage!r}")


def verify_artifact(path: Path, replicas: int, grid_points: int) -> str:
    """Verify one artifact and return its table digest, or raise CheckError."""
    try:
        return _verify(path, replicas, grid_points)
    except CheckError:
        raise
    except (ValueError, OSError, KeyError, IndexError, TypeError) as err:
        raise CheckError(f"{path.name}: {err}") from err


def _verify(path: Path, replicas: int, grid_points: int) -> str:
    name = path.name
    if not path.is_file():
        raise CheckError(f"{name}: missing")
    if name.endswith(".bin"):
        counting.load_count_table(path)
        return path.read_bytes()[-32:].hex()
    if name.endswith(".json"):
        body = read_json_report(path)
        if name.startswith("step_law_"):
            _require(abs(body["total_mass"] - 1.0) <= LAW_MASS_TOLERANCE,
                     f"{name}: step-law mass {body['total_mass']!r} is not 1")
        elif name.startswith("oracle_n"):
            _require(body["max_abs_difference"] <= ORACLE_TOLERANCE,
                     f"{name}: oracle difference {body['max_abs_difference']!r}")
        elif name == "report.json":
            _require(math.isfinite(body["sigma2_hat"]) and body["sigma2_hat"] > 0,
                     f"{name}: sigma2_hat {body['sigma2_hat']!r}")
        return _json_digest(path)
    stamp, header, rows = read_csv_report(path)
    if name.startswith("totals_"):
        _check_totals(name, rows)
    elif name.startswith("skeletons_n"):
        _require(stamp["leakage"] < MAX_LEAKAGE, f"{name}: leakage {stamp['leakage']!r}")
        _check_pinned(name, int(stamp["n"]), replicas, rows)
    elif name.startswith("process_n"):
        _require(len(rows) == replicas * grid_points,
                 f"{name}: {len(rows)} rows, expected {replicas * grid_points}")
    return _csv_digest(path)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _csv_digest(path: Path) -> str:
    with path.open(encoding="utf-8") as handle:
        handle.readline()
        return handle.readline().removeprefix("# sha256: ").strip()


def _json_digest(path: Path) -> str:
    return json.loads(path.read_text(encoding="utf-8"))["sha256"]


def _check_totals(name: str, rows: list[list[str]]) -> None:
    for row in rows:
        length, count = int(row[0]), int(row[1])
        if length < len(SAW_COUNTS_2D):
            _require(count == SAW_COUNTS_2D[length],
                     f"{name}: {count} walks of length {length}, "
                     f"expected {SAW_COUNTS_2D[length]}")


def _check_pinned(name: str, n: int, replicas: int, rows: list[list[str]]) -> None:
    """Every replicate present once, steps in order, summing to (n, 0)."""
    table = np.array(rows, dtype=np.int64)
    replicate, k, index, t = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
    starts = np.flatnonzero(np.diff(replicate, prepend=-1))
    _require(starts.size == replicas
             and np.array_equal(replicate[starts], np.arange(replicas)),
             f"{name}: replicates are not 0..{replicas - 1} in order")
    lengths = np.diff(np.append(starts, len(table)))
    _require(np.array_equal(k, np.repeat(lengths, lengths)),
             f"{name}: increment counts disagree with k")
    _require(np.array_equal(index, np.arange(len(table)) - np.repeat(starts, lengths)),
             f"{name}: step indices out of order")
    _require(bool(np.all(t >= 1)), f"{name}: an increment does not advance")
    _require(bool(np.all(np.add.reduceat(t, starts) == n)),
             f"{name}: a skeleton does not end at t = {n}")
    _require(bool(np.all(np.add.reduceat(table[:, 4:], starts, axis=0) == 0)),
             f"{name}: a skeleton does not end on the axis")
