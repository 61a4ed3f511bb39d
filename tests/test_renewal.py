from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sawbridge import counting, renewal
from sawbridge.counting import WalkClass
from sawbridge.lattice import FrameSplit


def test_forward_weights_small_table():
    irr = counting.enumerate_counts(2, 3, WalkClass.IRREDUCIBLE_BRIDGE)
    weights = renewal.forward_weights(irr, 1.2)
    # the only irreducible bridge to (1, 0) within 3 steps is the unit step
    assert weights[FrameSplit(1, (0,))] == pytest.approx(math.exp(-1.2), rel=1e-15)
    # right-up-up is an irreducible 3-step bridge to (1, 2)
    assert weights[FrameSplit(1, (2,))] == pytest.approx(math.exp(-3.6), rel=1e-15)
    assert all(s.t >= 1 for s in weights)


def test_calibrate_degenerate_single_step():
    irr = counting.enumerate_counts(2, 1, WalkClass.IRREDUCIBLE_BRIDGE)
    m_hat = renewal.calibrate_mass(irr, 1.2)
    # single step of weight e^{-beta}: the tilt must cancel it exactly
    assert m_hat == pytest.approx(-1.2, abs=1e-11)
    law = renewal.build_step_law(irr, 1.2, m_hat)
    assert set(law.probs) == {FrameSplit(1, (0,))}
    assert law.probs[FrameSplit(1, (0,))] == pytest.approx(1.0, abs=1e-11)


def test_calibrated_root_verified_by_direct_resummation(irr_table_l12):
    m_hat = renewal.calibrate_mass(irr_table_l12, 1.2)
    # regression pin for the calibrated tilt at this beta and cutoff
    assert m_hat == pytest.approx(-0.5543035797, abs=1e-9)

    # independent re-summation of the tilted mass, grouped by length shell
    w = [math.exp(-1.2 * length) for length in range(13)]
    total = 0.0
    for site in sorted(irr_table_l12.counts):
        if site[0] < 1:
            continue
        row = irr_table_l12.counts[site]
        tilt = math.exp(-m_hat * site[0])
        total += sum(int(c) * wl * tilt for c, wl in zip(row, w))
    assert abs(total - 1.0) <= 1e-12

    # strict monotonicity around the root
    weights = renewal.forward_weights(irr_table_l12, 1.2)
    assert renewal.tilted_mass(weights, m_hat - 0.1) > 1.0
    assert renewal.tilted_mass(weights, m_hat + 0.1) < 1.0


def test_calibration_monotone_in_cutoff(irr_table_l12):
    irr10 = counting.enumerate_counts(2, 10, WalkClass.IRREDUCIBLE_BRIDGE)
    m10 = renewal.calibrate_mass(irr10, 1.2)
    m12 = renewal.calibrate_mass(irr_table_l12, 1.2)
    # the tilted mass grows pointwise with the cutoff and falls in m, so
    # extra mass pushes the root up
    assert m12 >= m10


def test_calibration_validation_errors():
    bridge = counting.enumerate_counts(2, 4, WalkClass.BRIDGE)
    with pytest.raises(ValueError):
        renewal.calibrate_mass(bridge, 1.2)
    empty = counting.enumerate_counts(2, 0, WalkClass.IRREDUCIBLE_BRIDGE)
    with pytest.raises(renewal.EmptyTableError):
        renewal.calibrate_mass(empty, 1.2)


def test_step_law_invariants(step_law_l13):
    law = step_law_l13
    assert abs(law.total_mass() - 1.0) <= renewal.NORMALIZATION_TOL
    assert all(s.t >= 1 for s in law.probs)
    assert all(p > 0 for p in law.probs.values())
    # transverse reflection symmetry, exact because the count rows are equal
    for s, p in law.probs.items():
        assert law.probs[FrameSplit(s.t, tuple(-c for c in s.y))] == p
    # straight unit step beats any long sideways step at t = 1
    widest = max(abs(s.y[0]) for s in law.probs if s.t == 1)
    assert law.probs[FrameSplit(1, (0,))] > law.probs[FrameSplit(1, (widest,))]


def test_step_law_support_matches_positive_counts(irr_table_l12):
    m_hat = renewal.calibrate_mass(irr_table_l12, 1.2)
    law = renewal.build_step_law(irr_table_l12, 1.2, m_hat)
    expected = {
        FrameSplit(site[0], tuple(site[1:]))
        for site, row in irr_table_l12.counts.items()
        if site[0] >= 1 and int(row.sum()) > 0
    }
    assert set(law.probs) == expected


def test_step_law_tail_mass_decreases_with_radius(step_law_l13):
    norms = sorted({math.hypot(s.t, *s.y) for s in step_law_l13.probs})
    tails = [
        math.fsum(
            p for s, p in step_law_l13.probs.items() if math.hypot(s.t, *s.y) > r
        )
        for r in norms
    ]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


def test_build_step_law_rejects_bad_tilt(irr_table_l12):
    m_hat = renewal.calibrate_mass(irr_table_l12, 1.2)
    with pytest.raises(renewal.NormalizationError):
        renewal.build_step_law(irr_table_l12, 1.2, m_hat + 0.05)


def test_truncation_tail_mass_shrinks_with_cutoff(irr_table_l12, irr_table_l13):
    m12 = renewal.calibrate_mass(irr_table_l12, 1.2)
    m13 = renewal.calibrate_mass(irr_table_l13, 1.2)
    shell12 = renewal.truncation_tail_mass(irr_table_l12, 1.2, m12)
    shell13 = renewal.truncation_tail_mass(irr_table_l13, 1.2, m13)
    assert shell12 > 0
    assert shell13 > 0
    assert shell13 < shell12


def test_mass_gap_diagnostic(bridge_table_l12, irr_table_l12):
    bridge = counting.slab_rates(bridge_table_l12, 1.2, 4)
    irreducible = counting.slab_rates(irr_table_l12, 1.2, 4)
    assert bridge[-1] - irreducible[-1] > 0
    assert np.all(np.isfinite(bridge))
    assert np.all(bridge >= irreducible)
    # the n=1 slab contains at least the single step
    h1 = math.exp(bridge[0])
    assert h1 >= math.exp(-1.2)

    # irreducible bridges spanning n >= 2 need at least 3n steps, so the
    # n=5 slab is empty at this cutoff
    with pytest.raises(counting.ZeroWeightError):
        counting.slab_rates(irr_table_l12, 1.2, 6)
    with pytest.raises(ValueError):
        counting.slab_rates(bridge_table_l12, 1.2, 13)


def test_oz_prefactor_diagnostic(all_table_l10):
    prefactor, tau_hat = counting.oz_prefactor(all_table_l10, 1.2, 4)
    assert np.all(prefactor > 0)
    ratios = prefactor[1:] / prefactor[:-1]
    assert ratios.shape == (3,)
    _, tau = counting.mass_estimate(all_table_l10, 1.2, 4)
    assert tau_hat == tau
    # tau_hat is the decay rate at n_max, so the last prefactor is exact
    assert prefactor[-1] == 4 ** ((2 - 1) / 2)
    # inflating the decay estimate makes the sequence grow geometrically
    inflated = prefactor * np.exp(0.1 * np.arange(1, 5))
    assert np.all(inflated[1:] / inflated[:-1] > ratios)


def test_step_law_json_roundtrip(step_law_l13):
    law = step_law_l13
    text = renewal.step_law_to_json(law)
    back = renewal.step_law_from_json(text)
    assert back == law  # dataclass equality: every float identical

    payload = json.loads(text)
    steps = [(s["t"], tuple(s["y"])) for s in payload["steps"]]
    assert steps == sorted(steps)
    assert payload["L"] == 13

    assert renewal.step_law_digest(back) == renewal.step_law_digest(law)

    payload["steps"][0]["p"] *= 2.0
    with pytest.raises(renewal.NormalizationError):
        renewal.step_law_from_json(json.dumps(payload))


def test_law_rebuilt_from_cache_is_bitwise_identical(tmp_path, irr_table_l12):
    m_hat = renewal.calibrate_mass(irr_table_l12, 1.2)
    direct = renewal.build_step_law(irr_table_l12, 1.2, m_hat)
    cache = tmp_path / "irr.bin"
    counting.save_count_table(irr_table_l12, cache)
    reloaded = counting.load_count_table(cache)
    rebuilt = renewal.build_step_law(reloaded, 1.2, renewal.calibrate_mass(reloaded, 1.2))
    assert rebuilt == direct


@pytest.mark.parametrize("n,cutoff", [(2, 8), (3, 9)])
def test_product_law_matches_exhaustive_law(n, cutoff):
    irr = counting.enumerate_counts(2, cutoff, WalkClass.IRREDUCIBLE_BRIDGE)
    product = renewal.product_skeleton_law(irr, 1.2, n)
    exact = counting.exact_conditioned_skeleton_law(2, n, 1.2, cutoff)
    # the same count rows, weighted by the same arithmetic: equal bit for bit
    assert list(product.items()) == list(exact.items())


@pytest.mark.parametrize("beta, n", [(0.0, 3), (-1.2, 3), (1.2, 0), (1.2, -2)])
def test_product_law_rejects_bad_arguments(beta, n):
    irr = counting.enumerate_counts(2, 6, WalkClass.IRREDUCIBLE_BRIDGE)
    with pytest.raises(ValueError, match="beta must be positive|axis distance"):
        renewal.product_skeleton_law(irr, beta, n)


def test_product_law_requires_an_irreducible_table():
    bridges = counting.enumerate_counts(2, 6, WalkClass.BRIDGE)
    with pytest.raises(ValueError, match="irreducible-bridge table"):
        renewal.product_skeleton_law(bridges, 1.2, 3)


def test_product_law_beyond_the_cutoffs_reach_is_empty():
    # a skeleton to (5, 0) needs at least 5 steps: none fits a cutoff of 4,
    # so the search prunes its first level to nothing
    irr = counting.enumerate_counts(2, 4, WalkClass.IRREDUCIBLE_BRIDGE)
    with pytest.raises(counting.ZeroWeightError, match=r"\(5, 0̃\)"):
        renewal.product_skeleton_law(irr, 1.2, 5)
