from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawbridge import counting, renewal, sampler, stats
from sawbridge.config import DEFAULT_GRID
from sawbridge.counting import WalkClass
from sawbridge.lattice import FrameSplit
from sawbridge.sampler import Skeleton, SkeletonBatch
from sawbridge.stats import DegenerateFitError

from oracles import (
    batch_of,
    brownian_bridge_covariance,
    classic_ks_statistic,
    exact_gap_fraction,
    longer_than_cube_root,
    naive_skeleton,
    paths_of,
    renewal_conditioned_law,
)


def synthetic_ensemble(values: np.ndarray) -> np.ndarray:
    """Process values of one transverse coordinate, shaped as build_ensemble's."""
    if values.ndim == 1:
        values = values[:, None]
    return values[:, :, None]


def empty_batch() -> SkeletonBatch:
    return SkeletonBatch(
        n=2, steps=np.zeros((0, 2), dtype=np.int64), offsets=np.zeros(1, dtype=np.int64)
    )


@pytest.fixture(scope="module")
def law_l9() -> renewal.StepLaw:
    irr = counting.enumerate_counts(2, 9, WalkClass.IRREDUCIBLE_BRIDGE)
    m_hat = renewal.calibrate_mass(irr, 1.2)
    return renewal.build_step_law(irr, 1.2, m_hat)


@pytest.fixture(scope="module")
def small_ensemble(law_l9) -> np.ndarray:
    table = sampler.dp_partition(law_l9, 16)
    skeletons = sampler.sample_skeletons(law_l9, table, seed=12, replicates=range(3000))
    return stats.build_ensemble(skeletons, np.array(DEFAULT_GRID))


# ---------------------------------------------------------------------------
# grids and ensemble construction


def test_default_grid_is_interior_deciles():
    stats.require_grid(np.array(DEFAULT_GRID))


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        stats.require_grid(np.array([]))
    with pytest.raises(ValueError):
        stats.require_grid(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        stats.require_grid(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        stats.require_grid(np.array([0.4, 0.4]))
    with pytest.raises(ValueError):
        stats.require_grid(np.array([0.5, 0.3]))


def test_build_ensemble_shape(law_l9):
    table = sampler.dp_partition(law_l9, 8)
    skeletons = sampler.sample_skeletons(law_l9, table, seed=1, replicates=range(40))
    grid = np.array(DEFAULT_GRID)
    values = stats.build_ensemble(skeletons, grid)
    assert values.shape == (40, 9, 1)
    assert len(values) == len(skeletons) == 40
    assert skeletons.n == 8


def test_build_ensemble_rejects_bad_input(law_l9):
    grid = np.array(DEFAULT_GRID)
    with pytest.raises(ValueError):
        stats.build_ensemble(empty_batch(), grid)
    one = batch_of(Skeleton(increments=(FrameSplit(2, (0,)),), n=2))
    with pytest.raises(ValueError):
        stats.build_ensemble(one, np.array([0.0, 0.5]))


# ---------------------------------------------------------------------------
# covariance and the bridge fit


def test_zero_ensemble_has_zero_covariance():
    ens = synthetic_ensemble(np.zeros((50, 9)))
    assert not stats.empirical_covariance(ens).any()


def test_empirical_covariance_matches_gaussian_oracle():
    grid = np.array(DEFAULT_GRID)
    cov_true = np.array(brownian_bridge_covariance(grid.tolist(), 1.0))
    rng = np.random.default_rng(1)
    draws = rng.multivariate_normal(np.zeros(grid.size), cov_true, size=20000)
    cov = stats.empirical_covariance(synthetic_ensemble(draws))
    # Cov(0.2, 0.5) = 0.2 * (1 - 0.5) = 0.1, checked to four standard errors
    se = math.sqrt((cov_true[1, 1] * cov_true[4, 4] + cov_true[1, 4] ** 2) / 20000)
    assert abs(cov[1, 4] - 0.1) <= 4 * se
    assert np.all(np.diag(cov) >= 0.0)


def test_empirical_covariance_symmetric_and_diagonally_dominant(small_ensemble):
    cov = stats.empirical_covariance(small_ensemble)
    assert np.allclose(cov, cov.T, atol=0.0)
    slack = 0.05 * float(np.diag(cov).max())
    for i in range(cov.shape[0]):
        assert np.all(cov[i, i] + slack >= cov[i])


def test_fit_recovers_exact_kernel():
    grid = np.array(DEFAULT_GRID)
    fit = stats.fit_bridge_covariance(2.0 * stats.bridge_kernel(grid), grid)
    assert fit.sigma2_hat == pytest.approx(2.0, rel=1e-14)
    assert fit.rel_rms == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    sigma2=st.floats(1e-3, 1e3),
    size=st.integers(2, 9),
)
def test_fit_recovers_any_scale_on_any_subgrid(sigma2, size):
    grid = np.array(DEFAULT_GRID)[:size]
    fit = stats.fit_bridge_covariance(sigma2 * stats.bridge_kernel(grid), grid)
    assert fit.sigma2_hat == pytest.approx(sigma2, rel=1e-12)
    assert fit.rel_rms <= 1e-12


def test_fit_degenerate_inputs_raise():
    grid = np.array(DEFAULT_GRID)
    with pytest.raises(DegenerateFitError):
        stats.fit_bridge_covariance(np.zeros((9, 9)), grid)
    with pytest.raises(DegenerateFitError):
        stats.fit_bridge_covariance(-stats.bridge_kernel(grid), grid)
    with pytest.raises(ValueError):
        stats.fit_bridge_covariance(np.zeros((3, 3)), grid)


def test_synthetic_bridge_ensemble_fits_cleanly():
    grid = np.array(DEFAULT_GRID)
    cov_true = np.array(brownian_bridge_covariance(grid.tolist(), 1.0))
    rng = np.random.default_rng(1)
    draws = rng.multivariate_normal(np.zeros(grid.size), cov_true, size=20000)
    fit = stats.fit_bridge_covariance(
        stats.empirical_covariance(synthetic_ensemble(draws)), grid
    )
    assert fit.sigma2_hat == pytest.approx(1.0, abs=0.03)
    assert fit.rel_rms <= 0.03


def test_ensemble_mean_path_is_centered(small_ensemble):
    values = small_ensemble[:, :, 0]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * se)


def test_sigma2_stable_across_spans(law_l9):
    grid = np.array(DEFAULT_GRID)
    fits = {}
    for n in (100, 200):
        table = sampler.dp_partition(law_l9, n)
        skeletons = sampler.sample_skeletons(
            law_l9, table, seed=9, replicates=range(6000), threads=2
        )
        ensemble = stats.build_ensemble(skeletons, grid)
        fits[n] = stats.fit_bridge_covariance(
            stats.empirical_covariance(ensemble), grid
        )
    assert fits[100].sigma2_hat == pytest.approx(fits[200].sigma2_hat, rel=0.10)
    assert fits[200].rel_rms <= 0.08


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov marginal checks


def test_ks_on_standard_normal_sample_is_uniformish():
    pvalues = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        statistic = classic_ks_statistic(rng.standard_normal(10000))
        pvalues.append(stats.kolmogorov_pvalue(statistic, 10000))
    pvalues.sort()
    assert 0.35 <= pvalues[50] <= 0.65
    assert pvalues[0] < 0.2 and pvalues[-1] > 0.8


def test_ks_constant_zero_sample_is_rejected():
    statistic = classic_ks_statistic(np.zeros(500))
    p = stats.kolmogorov_pvalue(statistic, 500)
    assert statistic == pytest.approx(0.5, abs=1e-12)
    assert p <= 1e-12


@pytest.mark.parametrize("lam", [0.001, 0.005, 0.01, 0.03])
def test_ks_pvalue_is_one_for_a_near_perfect_fit(lam):
    # the true tail is 1 - O(exp(-pi^2 / (8 lambda^2))), 1 in double precision
    assert stats.kolmogorov_pvalue(lam / 10.0, 100) == pytest.approx(1.0, abs=1e-12)


def test_ks_pvalue_never_rises_as_the_statistic_grows():
    pvalues = np.array([stats.kolmogorov_pvalue(lam, 1) for lam in np.linspace(0.001, 3, 30001)])
    assert np.diff(pvalues).max() <= 1e-12


def test_ks_lattice_mode_removes_the_discreteness_floor():
    # marginals rounded to the 1/sqrt(n) lattice: the classic statistic
    # saturates at half an atom of probability however large the sample,
    # while the cell-boundary comparison sees only true misfit
    n, reps = 400, 20000
    rng = np.random.default_rng(3)
    scale = math.sqrt(0.25)
    rounded = np.round(rng.standard_normal(reps) * scale * math.sqrt(n)) / math.sqrt(n)
    stat_classic = classic_ks_statistic(rounded / scale)
    p_classic = stats.kolmogorov_pvalue(stat_classic, reps)
    atom = 1.0 / (math.sqrt(n) * scale)
    assert stat_classic >= 0.35 * atom / math.sqrt(2.0 * math.pi)
    assert p_classic <= 1e-6
    stat_lattice, p_lattice = stats.ks_marginal(rounded[:, None], n, 0.5, 1.0)
    assert stat_lattice <= 0.5 * stat_classic
    assert p_lattice >= 0.05


def test_ks_validation_errors(small_ensemble):
    middle = small_ensemble[:, DEFAULT_GRID.index(0.5)]
    with pytest.raises(ValueError):
        stats.ks_marginal(middle, 16, 0.5, 0.0)
    with pytest.raises(ValueError):
        stats.ks_marginal(np.zeros((10, 1)), 16, 0.5, 1.0)
    with pytest.raises(ValueError):
        stats.ks_marginal(np.zeros((500, 1)), 0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# renewal increment gaps


def unit_skeleton(n: int) -> Skeleton:
    return Skeleton(increments=(FrameSplit(1, (0,)),) * n, n=n)


def test_gap_statistic_degenerate_cases():
    assert stats.gap_statistic(batch_of(*[unit_skeleton(2)] * 5)) == 0.0
    # a single unit step has norm exactly 1 = 1^(1/3), not above it
    assert stats.gap_statistic(batch_of(unit_skeleton(1))) == 0.0


def test_gap_statistic_counts_wide_jumps():
    wide = Skeleton(increments=(FrameSplit(1, (3,)), FrameSplit(1, (-3,))), n=2)
    flock = batch_of(unit_skeleton(2), wide, unit_skeleton(2), wide)
    assert stats.gap_statistic(flock) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.gap_statistic(empty_batch())


def test_gap_statistic_norm_equal_to_cube_root_is_not_above_it():
    # |(3, +-4)| = 5 = 125^(1/3) exactly, though 125 ** (1/3) is
    # 4.999999999999999 in floats
    skeleton = Skeleton(
        increments=(FrameSplit(3, (4,)), FrameSplit(3, (-4,)))
        + (FrameSplit(1, (0,)),) * 119,
        n=125,
    )
    assert stats.gap_statistic(batch_of(skeleton)) == 0.0
    longer = Skeleton(
        increments=(FrameSplit(3, (5,)), FrameSplit(3, (-5,)))
        + (FrameSplit(1, (0,)),) * 119,
        n=125,
    )
    assert stats.gap_statistic(batch_of(skeleton, longer)) == pytest.approx(0.5)


def test_exact_gap_fraction_matches_brute_force_law(law_l9):
    # at radius n * reach no composition can leave the box, so the two
    # partition functions and the brute-force law are all untruncated
    n = 5
    triples = [(s.t, tuple(s.y), p) for s, p in sorted(law_l9.probs.items())]
    law = renewal_conditioned_law(triples, n)
    brute = math.fsum(
        p
        for skeleton, p in law.items()
        if any(longer_than_cube_root(t, y, n) for t, y in skeleton)
    )
    reach = max(abs(y[0]) for _, y, _ in triples)
    exact = exact_gap_fraction(law_l9, n, n * reach)
    assert 0.0 < brute < 1.0
    assert abs(exact - brute) <= 1e-12


def test_gap_fraction_decreases_with_span(law_l9):
    fractions = {}
    for n in (27, 64):
        table = sampler.dp_partition(law_l9, n)
        skeletons = sampler.sample_skeletons(
            law_l9, table, seed=4, replicates=range(3000)
        )
        fractions[n] = stats.gap_statistic(skeletons)
        longer = [
            any(longer_than_cube_root(s.t, s.y, n) for s in skeleton.increments)
            for skeleton in skeletons
        ]
        assert fractions[n] == sum(longer) / len(longer)
    assert fractions[27] >= fractions[64]
    assert fractions[64] < 1.0


# ---------------------------------------------------------------------------
# walk-to-skeleton shrinking


def straight_walk(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((k, 0) for k in range(n + 1))


def test_shrinking_straight_walk_is_zero():
    walk = straight_walk(3)
    assert stats.shrinking_statistic([walk], 3)[0] == pytest.approx(0.0, abs=1e-15)


def test_shrinking_single_step_walk_is_zero():
    walk = ((0, 0), (1, 0))
    assert stats.shrinking_statistic([walk], 1)[0] == pytest.approx(0.0, abs=1e-15)


def test_shrinking_tent_walk_exact_value():
    # scaled walk vertices sit 1/sqrt(6) away from the two tent segments
    walk = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 0))
    [(_, knots)] = counting.knot_stacks(np.array([walk]))
    assert knots[0].tolist() == [[0, 0], [1, 1], [2, 0]]
    value = stats.shrinking_statistic([walk], 2)[0]
    assert value == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)


def test_shrinking_rejects_off_axis_walk():
    off_axis = ((0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError):
        stats.shrinking_statistic([off_axis], 1)


def shrinking_one_walk(walk, n: int) -> float:
    """The statistic of one walk, computed on its own: the reference the
    grouped arithmetic of shrinking_statistic must equal bit for bit."""
    scale = np.array([n] + [math.sqrt(n)] * (len(walk[0]) - 1))
    points = np.asarray(walk, dtype=np.float64) / scale
    increments = naive_skeleton(walk)
    knots = np.vstack((np.zeros(len(walk[0])), np.cumsum(increments, axis=0))) / scale
    starts, spans = knots[:-1], knots[1:] - knots[:-1]
    lengths2 = np.einsum("sd,sd->s", spans, spans)
    offsets = points[:, None, :] - starts[None, :, :]
    position = np.clip(np.einsum("psd,sd->ps", offsets, spans) / lengths2, 0.0, 1.0)
    nearest = starts[None, :, :] + position[:, :, None] * spans[None, :, :]
    return float(np.linalg.norm(points[:, None, :] - nearest, axis=2).min(axis=1).max())


@pytest.mark.parametrize("d, n, cutoff", [(2, 4, 10), (3, 3, 5)])
def test_shrinking_of_many_walks_equals_each_walk_alone(d, n, cutoff):
    walks = sampler.ExhaustiveWalkSampler(d, n, cutoff)
    paths = paths_of(walks.walks)
    assert len({(len(p), len(naive_skeleton(p))) for p in paths}) > 1
    values = stats.shrinking_statistic(walks.walks, n)
    assert values.dtype == np.float64
    assert values.tolist() == [shrinking_one_walk(p, n) for p in paths]
    # walks given one by one are measured alike
    assert stats.shrinking_statistic(paths, n).tolist() == values.tolist()


@pytest.mark.parametrize(
    "walk, message",
    [
        (((0, 0), (1, 0), (0, 0), (1, 0)), "not a self-avoiding walk"),
        (((0, 0), (0, 1), (1, 1), (1, 0)), "only for bridges"),
    ],
)
def test_shrinking_rejects_a_non_walk_and_a_non_bridge(walk, message):
    with pytest.raises(ValueError, match=message):
        stats.shrinking_statistic([straight_walk(1), walk], 1)


def test_shrinking_shrinks_between_exhaustive_spans():
    # exact ensemble means over every bridge, weighted by e^{-beta |walk|}:
    # the scaled walk hugs its skeleton more tightly at the larger span
    means = {}
    for n, cutoff in ((4, 10), (6, 12)):
        walks = sampler.ExhaustiveWalkSampler(2, n, cutoff)
        steps = np.concatenate([np.full(len(w), w.shape[1] - 1) for w in walks.walks])
        weights = np.exp(-1.2 * steps)
        weights /= weights.sum()
        values = stats.shrinking_statistic(walks.walks, n)
        means[n] = float(weights @ values)
    assert means[6] < means[4]
