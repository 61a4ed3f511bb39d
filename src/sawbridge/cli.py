"""Command-line pipeline: enumerate, calibrate, sample, analyze, oracle.

Each subcommand reads the same configuration (a JSON file plus flag
overrides), performs one pipeline stage, and writes deterministic,
hash-stamped artifacts into the output directory:

* enumerate: count-table caches for every walk class, plus a totals CSV;
* calibrate: the tilted step law as a hashed JSON report;
* sample:    per-span skeleton ensembles and scaled-process grids (CSV);
* analyze:   covariance fit, marginal tests, gap fractions, shrinking;
* oracle:    exact-law comparisons at a small span, with a hard gate.

Exit codes: 0 on success, 2 on validation problems (bad flags, missing
inputs, inputs stamped with other config values), 3 when a measured
quantity violates its acceptance bound.

Embedded provenance deliberately omits the execution-only knobs (thread
count, output directory): results are bit-identical across those, and
the stamped files must be too.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import counting, renewal, sampler, stats
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config_file,
    resolve_config,
)
from .counting import WalkClass
from .reporting import (
    read_csv_report,  # noqa: F401 -- traced by perfbench at this name
    read_int_csv_report,
    read_json_report,
    write_csv_report,
    write_json_report,
)
from .sampler import LeakageError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3

ORACLE_TOLERANCE = 1e-12
# exhaustive shrinking runs at fixed small spans with matched headroom
SHRINK_SPANS = ((4, 10), (6, 12))
# the config fields a step law and a skeleton file are stamped with
LAW_FIELDS = ("d", "cutoff", "beta")
SKELETON_FIELDS = (*LAW_FIELDS, "replicas", "seed", "grid", "box_radius")


class ThresholdError(RuntimeError):
    """A measured quantity violated its acceptance bound."""


def provenance(config: ExperimentConfig, *fields: str, **extra) -> dict:
    """Stamp for an output file: the config fields its content depends on.

    Execution knobs (threads, out) and fields that cannot change the file
    stay out, so reruns of equivalent campaigns are byte-identical.
    """
    payload = config.to_dict()
    stamp = {name: payload[name] for name in fields}
    stamp.update(extra)
    return stamp


def cache_path(config: ExperimentConfig, walk_class: WalkClass) -> Path:
    return Path(config.out) / (
        f"counts_d{config.d}_L{config.cutoff}_{walk_class.value}.bin"
    )


def law_path(config: ExperimentConfig) -> Path:
    return Path(config.out) / f"step_law_d{config.d}_L{config.cutoff}.json"


def skeleton_path(config: ExperimentConfig, n: int) -> Path:
    return Path(config.out) / f"skeletons_n{n}.csv"


def process_path(config: ExperimentConfig, n: int) -> Path:
    return Path(config.out) / f"process_n{n}.csv"


def cmd_enumerate(config: ExperimentConfig) -> None:
    """Count walks, bridges and irreducible bridges; write the count caches."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        walk_class: counting.enumerate_counts(config.d, config.cutoff, walk_class)
        for walk_class in WalkClass
    }
    for walk_class, table in tables.items():
        counting.save_count_table(
            table,
            cache_path(config, walk_class),
            config=provenance(config, "d", "cutoff"),
        )
    totals, growth = counting.total_counts(tables[WalkClass.ALL])
    rows = [[0, int(totals[0]), ""]]
    rows += [
        [length, int(totals[length]), float(growth[length - 1])]
        for length in range(1, len(totals))
    ]
    write_csv_report(
        out / f"totals_d{config.d}_L{config.cutoff}.csv",
        ["N", "count", "growth"],
        rows,
        provenance(config, "d", "cutoff"),
    )


def cmd_calibrate(config: ExperimentConfig) -> None:
    """Calibrate the tilted step law from the irreducible count cache."""
    irr_table = load_irreducible_table(config)
    m_hat = renewal.calibrate_mass(irr_table, config.beta)
    law = renewal.build_step_law(irr_table, config.beta, m_hat)
    payload = {
        "m_hat": m_hat,
        "tail_mass": renewal.truncation_tail_mass(irr_table, config.beta, m_hat),
        "total_mass": law.total_mass(),
        "digest": renewal.step_law_digest(law),
        "law": json.loads(renewal.step_law_to_json(law)),
    }
    Path(config.out).mkdir(parents=True, exist_ok=True)
    write_json_report(law_path(config), payload, provenance(config, *LAW_FIELDS))


def require_provenance(path: Path, stamp: dict, expected: dict) -> None:
    """Refuse an input file whose stamp disagrees with the resolved config."""
    if not isinstance(stamp, dict):
        raise ConfigError(f"{path}: stamp is not a JSON object")
    for name, value in expected.items():
        if stamp.get(name) != value:
            raise ConfigError(
                f"{path}: stamped {name} {stamp.get(name)!r} disagrees with "
                f"the configured {value!r}"
            )


def load_irreducible_table(config: ExperimentConfig) -> counting.CountTable:
    """The irreducible count cache, refused when it is missing or when the
    table it holds is of another d, cutoff or walk class."""
    path = cache_path(config, WalkClass.IRREDUCIBLE_BRIDGE)
    if not path.exists():
        raise ConfigError(f"missing count cache {path}; run enumerate first")
    table = counting.load_count_table(path)
    require_provenance(
        path,
        {"d": table.d, "cutoff": table.cutoff, "walk_class": table.walk_class.value},
        {
            "d": config.d,
            "cutoff": config.cutoff,
            "walk_class": WalkClass.IRREDUCIBLE_BRIDGE.value,
        },
    )
    return table


def load_law(config: ExperimentConfig) -> tuple[renewal.StepLaw, str]:
    path = law_path(config)
    if not path.exists():
        raise ConfigError(f"missing step law {path}; run calibrate first")
    report = read_json_report(path)
    try:
        require_provenance(path, report["config"], provenance(config, *LAW_FIELDS))
        law = renewal.step_law_from_json(json.dumps(report["law"]))
        digest, stated = renewal.step_law_digest(law), report["digest"]
        if stated != digest:
            raise ConfigError(f"{path}: digest {stated!r} is not the law's own {digest!r}")
        return law, digest
    except KeyError as err:
        raise ConfigError(f"{path}: step-law report has no {err} field") from None
    except TypeError as err:
        raise ConfigError(f"{path}: malformed step-law report: {err}") from None


def skeleton_header(d: int) -> list[str]:
    """The columns of a skeleton CSV: the layout, then the increment."""
    return ["replicate", "k", "step_index", "t", *(f"y{j}" for j in range(1, d))]


def cmd_sample(config: ExperimentConfig) -> None:
    """Sample pinned skeletons at each span; write skeleton and process CSVs."""
    law, digest = load_law(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for n in config.spans:
        table = sampler.dp_partition(law, n, config.box_radius)
        sampler.require_leakage(table)
        batch = sampler.sample_skeletons(
            law,
            table,
            seed=config.seed,
            replicates=range(config.replicas),
            threads=config.threads,
        )
        stamp = provenance(
            config, *SKELETON_FIELDS, n=n, law_digest=digest, leakage=table.leakage
        )
        write_csv_report(
            skeleton_path(config, n),
            skeleton_header(config.d),
            np.hstack((batch.layout(), batch.steps)),
            stamp,
        )
        values = sampler.evaluate_process_grid(batch, np.array(config.grid))
        value_names = [f"Y{j + 1}" for j in range(config.d - 1)]
        write_csv_report(
            process_path(config, n),
            ["replicate", "t", *value_names],
            [
                [replicate, t, *row]
                for replicate, rows in enumerate(values.tolist())
                for t, row in zip(config.grid, rows)
            ],
            stamp,
        )


def read_skeletons(config: ExperimentConfig, n: int) -> tuple[str, sampler.SkeletonBatch]:
    """The law digest and the skeletons of span n's skeleton CSV, read only
    once the file's whole stamp equals the config's, so d, n and replicas
    come from the config.  Rows must list replicates 0, 1, ... in order,
    each with its k steps in step order."""
    path = skeleton_path(config, n)
    if not path.exists():
        raise ConfigError(f"missing ensemble {path}; run sample first")
    stamp, header, table = read_int_csv_report(path)
    require_provenance(path, stamp, provenance(config, *SKELETON_FIELDS, n=n))
    if header != skeleton_header(config.d):
        raise ConfigError(f"{path}: header does not fit the stamped d {config.d}")
    starts = np.flatnonzero(np.diff(table[:, 0], prepend=-1))
    batch = sampler.SkeletonBatch(
        n=n, steps=table[:, 3:], offsets=np.append(starts, len(table))
    )
    for name, want, got in zip(header, batch.layout().T, table.T):
        if not np.array_equal(want, got):
            raise ConfigError(f"{path}: {name} column disagrees with the skeleton rows")
    if len(batch) != config.replicas:
        raise ConfigError(f"{path}: {len(batch)} skeletons for {config.replicas} replicas")
    digest = stamp.get("law_digest")
    if not isinstance(digest, str):
        raise ConfigError(f"{path}: stamped law_digest {digest!r} is not a digest")
    return digest, batch


def exhaustive_shrinking(beta: float) -> list[dict]:
    rows = []
    for n, cutoff in SHRINK_SPANS:
        walks = sampler.ExhaustiveWalkSampler(2, n, cutoff).walks
        steps = np.concatenate([np.full(len(w), w.shape[1] - 1) for w in walks])
        weights = np.exp(-beta * steps)
        values = stats.shrinking_statistic(walks, n)
        # exactly rounded sums, so the walks' order does not matter
        mean = math.fsum(weights * values) / math.fsum(weights)
        rows.append({"n": n, "mean": mean, "max": float(values.max())})
    return rows


def cmd_analyze(config: ExperimentConfig) -> None:
    """Fit and test the sampled skeletons against the Brownian bridge."""
    batches: dict[int, sampler.SkeletonBatch] = {}
    digests = set()
    for n in config.spans:
        digest, batches[n] = read_skeletons(config, n)
        digests.add(digest)
    if len(digests) != 1:
        raise ConfigError(f"skeleton files disagree on law_digest: {sorted(digests)}")
    digest = digests.pop()
    grid = np.array(config.grid)
    fit_span = max(config.spans)
    values = stats.build_ensemble(batches[fit_span], grid)
    fit = stats.fit_bridge_covariance(stats.empirical_covariance(values), grid)
    ks_rows = []
    for g, t in enumerate(config.grid):
        statistic, p = stats.ks_marginal(values[:, g], fit_span, t, fit.sigma2_hat)
        ks_rows.append({"t": t, "stat": statistic, "p": p})
    gap_rows = [
        {"n": n, "fraction": stats.gap_statistic(batches[n])}
        for n in sorted(config.spans)
    ]
    fractions = [row["fraction"] for row in gap_rows]
    shrink_rows = exhaustive_shrinking(config.beta) if config.d == 2 else []
    payload = {
        "n_fit": fit_span,
        "sigma2_hat": fit.sigma2_hat,
        "rel_rms": fit.rel_rms,
        "ks": ks_rows,
        "gap": gap_rows,
        "gap_monotone": all(b <= a for a, b in zip(fractions, fractions[1:])),
        "shrink": shrink_rows,
    }
    out = Path(config.out)
    stamp = provenance(config, *SKELETON_FIELDS, "spans", law_digest=digest)
    write_json_report(out / "report.json", payload, stamp)
    fit_rows = [{"n": fit_span, "sigma2_hat": fit.sigma2_hat, "rel_rms": fit.rel_rms}]
    for name, header, rows in (
        ("fit", ["n", "sigma2_hat", "rel_rms"], fit_rows),
        ("ks", ["t", "stat", "p"], ks_rows),
        ("gap", ["n", "fraction"], gap_rows),
        ("shrink", ["n", "mean", "max"], shrink_rows),
    ):
        table = [[row[key] for key in header] for row in rows]
        write_csv_report(out / f"{name}.csv", header, table, stamp)


def encode_skeleton(key: tuple[int, ...], d: int) -> str:
    """A flat skeleton key as space-separated increments t:y1:..."""
    return " ".join(":".join(map(str, key[i : i + d])) for i in range(0, len(key), d))


def cmd_oracle(config: ExperimentConfig) -> None:
    """Check the product law, exhaustive law and sampler at the smallest span."""
    n = min(config.spans)
    irr_table = load_irreducible_table(config)
    exact = counting.exact_conditioned_skeleton_law(
        config.d, n, config.beta, config.cutoff
    )
    product = renewal.product_skeleton_law(irr_table, config.beta, n)
    keys = sorted(set(exact) | set(product))
    max_abs = max(
        abs(exact.get(key, 0.0) - product.get(key, 0.0)) for key in keys
    )
    m_hat = renewal.calibrate_mass(irr_table, config.beta)
    law = renewal.build_step_law(irr_table, config.beta, m_hat)
    table = sampler.dp_partition(law, n, config.box_radius)
    sampler.require_leakage(table)
    frequencies = sampler.sample_skeletons(
        law,
        table,
        seed=config.seed,
        replicates=range(config.replicas),
        threads=config.threads,
    ).tally()
    # exactly rounded, so the keys' order cannot move the last bits
    tv = 0.5 * math.fsum(
        abs(frequencies.get(key, 0) / config.replicas - exact.get(key, 0.0))
        for key in set(exact) | set(frequencies)
    )
    payload = {
        "n": n,
        "support": len(exact),
        "max_abs_difference": max_abs,
        "tolerance": ORACLE_TOLERANCE,
        "tv_sampler_vs_exact": tv,
        "exact_mass": math.fsum(exact.values()),
        "product_mass": math.fsum(product.values()),
    }
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = provenance(
        config, "d", "cutoff", "beta", "replicas", "seed", "box_radius", n=n
    )
    write_json_report(out / f"oracle_n{n}.json", payload, stamp)
    write_csv_report(
        out / f"oracle_law_n{n}.csv",
        ["skeleton", "exact", "product", "abs_diff"],
        [
            [
                encode_skeleton(key, config.d),
                exact.get(key, 0.0),
                product.get(key, 0.0),
                abs(exact.get(key, 0.0) - product.get(key, 0.0)),
            ]
            for key in keys
        ],
        stamp,
    )
    if max_abs > ORACLE_TOLERANCE:
        raise ThresholdError(
            f"skeleton law mismatch {max_abs:.3e} exceeds {ORACLE_TOLERANCE:.1e}"
        )


COMMANDS = {
    "enumerate": cmd_enumerate,
    "calibrate": cmd_calibrate,
    "sample": cmd_sample,
    "analyze": cmd_analyze,
    "oracle": cmd_oracle,
}


def _list_of(kind: type):
    """A flag type: comma-separated values of one kind."""

    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part]

    parse.__name__ = f"{kind.__name__} list"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand takes --config and one flag per config field."""
    parser = argparse.ArgumentParser(
        prog="sawbridge",
        description="pinned self-avoiding bridge pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        sub.add_argument("--config", help="JSON config file")
        for field in dataclasses.fields(ExperimentConfig):
            kind = field.metadata["type"]
            sub.add_argument(
                field.metadata["flag"],
                type=_list_of(kind[0]) if isinstance(kind, list) else kind,
                dest=field.name,
                help=field.metadata["help"],
            )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config a parsed command line describes: defaults, then the
    --config file, then the other flags."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    file_payload = load_config_file(args.config) if args.config else None
    return resolve_config(file_payload, flags)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](config_from_args(args))
    except (LeakageError, ThresholdError) as err:
        print(f"threshold violation: {err}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
