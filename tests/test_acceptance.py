"""End-to-end acceptance checks for the pinned-bridge pipeline.

One test per criterion, in order.  Each prints a single pass/fail line
with the measured quantities at the stated tolerance before asserting,
so a full run reads as a checklist.  The heavy Monte Carlo fixtures
(20000-replica ensembles per span, a million-draw frequency table) are
shared module-wide and sampled once.
"""

from __future__ import annotations

import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from oracles import (
    exact_gap_fraction,
    flat_key,
    longer_than_cube_root,
    oz_residual,
    renewal_conditioned_law,
)
from sawbridge import cli, counting, renewal, sampler, stats
from sawbridge.config import DEFAULT_GRID
from sawbridge.counting import WalkClass
from sawbridge.sampler import SkeletonBatch

BETA = 1.2
SEED = 6
REPLICAS = 20000
GAP_SPANS = (64, 128, 256, 512)
# largest doubling of 64 at which the L = 13 law still has a step longer
# than n^(1/3); from n = 2048 on the cutoff alone makes the fraction 0
VANISHING_SPAN = 1024
# |z| > 4 has probability 6.3e-5 per span, so below 3e-4 over the four
# spans by Bonferroni, which holds although the spans share their streams
GAP_Z_BOUND = 4.0
FIT_SPANS = (200, 400)
SAW_COUNTS_1_TO_10 = (4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100)


def emit(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail}")


def table_rows(table: counting.CountTable) -> dict[tuple[int, ...], list[int]]:
    return {site: [int(c) for c in row] for site, row in table.counts.items()}


def non_increasing(values: list[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def all_pinned_at_axis_point(batch: SkeletonBatch, n: int) -> bool:
    ends = np.add.reduceat(batch.steps, batch.offsets[:-1], axis=0)
    return bool(np.all(ends[:, 0] == n)) and not ends[:, 1:].any()


@dataclass
class Campaign:
    """Shared Monte Carlo products: one sampling pass per span."""

    gap_fractions: dict[int, float] = field(default_factory=dict)
    ensembles: dict[int, np.ndarray] = field(default_factory=dict)
    elapsed: dict[int, float] = field(default_factory=dict)
    all_pinned: bool = True


@pytest.fixture(scope="module")
def campaign(step_law_l13) -> Campaign:
    law = step_law_l13
    grid = np.array(DEFAULT_GRID)
    out = Campaign()
    for n in sorted(set(GAP_SPANS) | set(FIT_SPANS)):
        started = time.perf_counter()
        table = sampler.dp_partition(law, n)
        sampler.require_leakage(table)
        skeletons = sampler.sample_skeletons(
            law, table, seed=SEED, replicates=range(REPLICAS)
        )
        out.all_pinned &= all_pinned_at_axis_point(skeletons, n)
        if n in GAP_SPANS:
            out.gap_fractions[n] = stats.gap_statistic(skeletons)
        if n in FIT_SPANS:
            out.ensembles[n] = stats.build_ensemble(skeletons, grid)
        out.elapsed[n] = time.perf_counter() - started
    return out


@pytest.fixture(scope="module")
def million_draw_frequencies(step_law_l13) -> Counter:
    law = step_law_l13
    table = sampler.dp_partition(law, 5)
    sampler.require_leakage(table)
    frequencies: Counter = Counter()
    chunk = 200_000
    for start in range(0, 1_000_000, chunk):
        skeletons = sampler.sample_skeletons(
            law, table, seed=SEED, replicates=range(start, start + chunk)
        )
        frequencies.update(skeletons.tally())
    return frequencies


def test_criterion_01_saw_counts(capsys):
    started = time.perf_counter()
    table = counting.enumerate_counts(2, 10, WalkClass.ALL)
    totals, _ = counting.total_counts(table)
    measured = tuple(int(c) for c in totals[1:])
    elapsed = time.perf_counter() - started
    ok = measured == SAW_COUNTS_1_TO_10 and elapsed < 60.0
    emit(
        capsys, 1, ok,
        f"c_1..c_10 = {measured} match exactly; elapsed {elapsed:.1f}s < 60s",
    )
    assert measured == SAW_COUNTS_1_TO_10
    assert elapsed < 60.0


def test_criterion_02_subadditivity(all_table_l10, capsys):
    totals, _ = counting.total_counts(all_table_l10)
    c = [int(v) for v in totals]
    pairs = [
        (m, n)
        for m in range(1, 10)
        for n in range(1, 10)
        if m + n <= 10
    ]
    violations = [(m, n) for m, n in pairs if c[m + n] > c[m] * c[n]]
    ok = not violations
    emit(
        capsys, 2, ok,
        f"c_(m+n) <= c_m c_n holds for all {len(pairs)} pairs with"
        f" m + n <= 10 (violations: {violations})",
    )
    assert not violations


def test_criterion_03_count_level_renewal_identity(capsys):
    started = time.perf_counter()
    bridge = counting.enumerate_counts(2, 12, WalkClass.BRIDGE)
    irr = counting.enumerate_counts(2, 12, WalkClass.IRREDUCIBLE_BRIDGE)
    residual = oz_residual(table_rows(bridge), table_rows(irr), 13)
    endpoints = sum(1 for v in bridge.counts if v[0] >= 1)
    elapsed = time.perf_counter() - started
    ok = residual == 0 and elapsed < 300.0
    emit(
        capsys, 3, ok,
        f"renewal-convolution residual = {residual} over {endpoints}"
        f" endpoints x 13 lengths, exact integers; elapsed"
        f" {elapsed:.1f}s < 300s",
    )
    assert residual == 0
    assert elapsed < 300.0


def test_criterion_04_step_law_normalization(irr_table_l12, capsys):
    m_hat = renewal.calibrate_mass(irr_table_l12, BETA)
    law = renewal.build_step_law(irr_table_l12, BETA, m_hat)
    deviation = abs(law.total_mass() - 1.0)
    ok = deviation <= 1e-10
    emit(
        capsys, 4, ok,
        f"|sum Q - 1| = {deviation:.3e} <= 1e-10 at d=2, beta={BETA},"
        f" L=12 (m_hat = {m_hat:.15f})",
    )
    assert deviation <= 1e-10


def test_criterion_05_skeleton_law_oracle_equivalence(irr_table_l13, capsys):
    exact = counting.exact_conditioned_skeleton_law(2, 5, BETA, 13)
    product = renewal.product_skeleton_law(irr_table_l13, BETA, 5)
    keys = set(exact) | set(product)
    worst = max(abs(exact.get(k, 0.0) - product.get(k, 0.0)) for k in keys)
    ok = worst <= 1e-12
    emit(
        capsys, 5, ok,
        f"max |exhaustive - product| = {worst:.3e} <= 1e-12 over"
        f" {len(keys)} skeletons at n=5, L=13",
    )
    assert worst <= 1e-12


def test_criterion_06_sampler_frequencies(
    step_law_l13, million_draw_frequencies, capsys
):
    draws = sum(million_draw_frequencies.values())
    triples = [
        (s.t, tuple(s.y), p) for s, p in sorted(step_law_l13.probs.items())
    ]
    law = renewal_conditioned_law(triples, 5, min_prob=1e-6)
    cells = {flat_key(sk): p for sk, p in law.items() if p >= 1e-4}
    worst = 0.0
    for sk, p in cells.items():
        se = math.sqrt(p * (1.0 - p) / draws)
        z = abs(million_draw_frequencies.get(sk, 0) / draws - p) / se
        worst = max(worst, z)
    ok = worst <= 3.0
    emit(
        capsys, 6, ok,
        f"worst |z| = {worst:.2f} <= 3 binomial SE over {len(cells)}"
        f" skeletons with p >= 1e-4 ({draws} draws at n=5)",
    )
    assert draws == 1_000_000
    assert worst <= 3.0


def test_criterion_07_bridge_covariance_fit(campaign, capsys):
    started = time.perf_counter()
    grid = np.array(DEFAULT_GRID)
    fits = {
        n: stats.fit_bridge_covariance(
            stats.empirical_covariance(campaign.ensembles[n]), grid
        )
        for n in FIT_SPANS
    }
    stability = abs(fits[200].sigma2_hat - fits[400].sigma2_hat) / fits[
        400
    ].sigma2_hat
    elapsed = (
        time.perf_counter() - started
        + campaign.elapsed[200]
        + campaign.elapsed[400]
    )
    ok = fits[400].rel_rms <= 0.10 and stability <= 0.05 and elapsed < 600.0
    emit(
        capsys, 7, ok,
        f"rel_rms = {fits[400].rel_rms:.4f} <= 0.10 for sigma2_hat ="
        f" {fits[400].sigma2_hat:.4f} at n=400; n=200 vs n=400 deviation"
        f" {stability:.3f} <= 0.05; elapsed {elapsed:.0f}s < 600s",
    )
    assert fits[400].rel_rms <= 0.10
    assert stability <= 0.05
    assert elapsed < 600.0


def test_criterion_08_gaussian_marginal(campaign, capsys):
    grid = np.array(DEFAULT_GRID)
    fit = stats.fit_bridge_covariance(
        stats.empirical_covariance(campaign.ensembles[400]), grid
    )
    middle = campaign.ensembles[400][:, DEFAULT_GRID.index(0.5)]
    statistic, p = stats.ks_marginal(middle, 400, 0.5, fit.sigma2_hat)
    ok = p > 0.01
    emit(
        capsys, 8, ok,
        f"lattice-aware KS at t=0.5, n=400: statistic = {statistic:.4f},"
        f" p = {p:.3f} > 0.01",
    )
    assert p > 0.01


def test_criterion_09_gap_lemma_trend(campaign, step_law_l13, capsys):
    # The gap lemma is asymptotic, so each Monte Carlo fraction is checked
    # against the exact finite-n fraction of the sampled chain, in the same
    # default box the campaign samples in, and the vanishing against the
    # exact value at VANISHING_SPAN.
    law = step_law_l13
    monotone = non_increasing([campaign.gap_fractions[n] for n in GAP_SPANS])
    exact = {
        n: exact_gap_fraction(law, n, sampler.default_box_radius(law, n))
        for n in (*GAP_SPANS, VANISHING_SPAN)
    }
    exact_monotone = non_increasing(list(exact.values()))
    z = {
        n: (campaign.gap_fractions[n] - exact[n])
        / math.sqrt(exact[n] * (1.0 - exact[n]) / REPLICAS)
        for n in GAP_SPANS
    }
    worst = max(abs(v) for v in z.values())
    has_long_step = any(
        longer_than_cube_root(s.t, s.y, VANISHING_SPAN) for s in law.probs
    )
    tail = exact[VANISHING_SPAN]
    ok = (
        monotone
        and worst <= GAP_Z_BOUND
        and exact_monotone
        and has_long_step
        and tail < 0.05
    )
    rendered = ", ".join(
        f"{n}: {campaign.gap_fractions[n]:.4f} vs {exact[n]:.4f}"
        f" (z = {z[n]:+.1f})"
        for n in GAP_SPANS
    )
    emit(
        capsys, 9, ok,
        f"fraction with max increment > n^(1/3), MC vs exact ({rendered});"
        f" MC non-increasing: {monotone}; worst |z| = {worst:.1f} <="
        f" {GAP_Z_BOUND:.0f}; exact non-increasing to n={VANISHING_SPAN}:"
        f" {exact_monotone}; exact at n={VANISHING_SPAN} = {tail:.4f}"
        f" < 0.05: {tail < 0.05}",
    )
    assert monotone
    assert worst <= GAP_Z_BOUND
    assert exact_monotone
    assert has_long_step
    assert tail < 0.05


def test_criterion_10_pinning_and_determinism(
    campaign, irr_table_l13, tmp_path, capsys
):
    base = tmp_path / "base"
    base.mkdir()
    counting.save_count_table(
        irr_table_l13, base / "counts_d2_L13_irreducible.bin"
    )
    assert cli.main(
        ["calibrate", "--d", "2", "--L", "13", "--out", str(base)]
    ) == 0
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        shutil.copy(base / "step_law_d2_L13.json", out)
        code = cli.main(
            ["sample", "--d", "2", "--L", "13", "--n", "12",
             "--replicas", "500", "--seed", "0",
             "--threads", str(threads), "--out", str(out)]
        )
        assert code == 0
        outputs[threads] = (
            (out / "skeletons_n12.csv").read_bytes(),
            (out / "process_n12.csv").read_bytes(),
        )
    identical = outputs[1] == outputs[4] == outputs[8]
    ok = campaign.all_pinned and identical
    emit(
        capsys, 10, ok,
        f"all {REPLICAS} skeletons per span pinned at (n, 0):"
        f" {campaign.all_pinned}; skeleton and process CSVs byte-identical"
        f" at threads 1/4/8: {identical}",
    )
    assert campaign.all_pinned
    assert identical
