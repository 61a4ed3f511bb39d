from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawbridge import counting, renewal, sampler
from sawbridge.counting import NoBridgesError, WalkClass
from sawbridge.lattice import FrameSplit
from sawbridge.renewal import StepLaw
from sawbridge.sampler import (
    BoxTooSmallError,
    LeakageError,
    Skeleton,
    SkeletonBatch,
    UnreachableStateError,
)

from oracles import (
    batch_of,
    composition_partition,
    interpolate_process,
    naive_is_bridge,
    paths_of,
    per_step_slabs,
    renewal_conditioned_law,
    scaled_knots,
)

ORIGIN_1D = (0,)


def make_law(probs: dict[FrameSplit, float], d: int = 2) -> StepLaw:
    return StepLaw(d=d, beta=1.2, cutoff=0, m_hat=0.0, probs=probs)


def calibrated_law(d: int, cutoff: int) -> StepLaw:
    irr = counting.enumerate_counts(d, cutoff, WalkClass.IRREDUCIBLE_BRIDGE)
    m_hat = renewal.calibrate_mass(irr, 1.2)
    return renewal.build_step_law(irr, 1.2, m_hat)


@pytest.fixture(scope="module")
def law_l9() -> StepLaw:
    return calibrated_law(2, 9)


@pytest.fixture(scope="module")
def degenerate_law() -> StepLaw:
    return make_law({FrameSplit(1, ORIGIN_1D): 1.0})


def law_triples(law: StepLaw) -> list[tuple[int, tuple[int, ...], float]]:
    return [(s.t, tuple(s.y), p) for s, p in sorted(law.probs.items())]


# ---------------------------------------------------------------------------
# partition table


def test_partition_degenerate_law_is_certain(degenerate_law):
    table = sampler.dp_partition(degenerate_law, 6)
    for t in range(7):
        assert table.value(t, ORIGIN_1D) == pytest.approx(1.0, abs=1e-15)
    assert table.value(3, (1,)) == 0.0
    assert table.leakage == 0.0


def test_partition_two_span_law_by_hand():
    # compositions of 2: two unit legs (1/4) or one double leg (1/2)
    law = make_law({FrameSplit(1, ORIGIN_1D): 0.5, FrameSplit(2, ORIGIN_1D): 0.5})
    table = sampler.dp_partition(law, 2)
    assert table.value(1, ORIGIN_1D) == pytest.approx(0.5, rel=1e-15)
    assert table.value(2, ORIGIN_1D) == pytest.approx(0.75, rel=1e-15)


def test_partition_empty_slab_has_no_mass():
    law = make_law({FrameSplit(2, ORIGIN_1D): 1.0})
    table = sampler.dp_partition(law, 4)
    assert table.value(1, ORIGIN_1D) == 0.0
    assert table.value(3, ORIGIN_1D) == 0.0
    assert table.value(4, ORIGIN_1D) == pytest.approx(1.0, abs=1e-15)


def test_partition_value_outside_box_is_zero(law_l9):
    table = sampler.dp_partition(law_l9, 4)
    assert table.value(0, ORIGIN_1D) == 1.0
    assert table.value(2, (table.radius + 1,)) == 0.0
    assert table.value(2, (-table.radius - 1,)) == 0.0


def test_partition_value_outside_the_slabs_is_zero(law_l9):
    # a negative t must not wrap around to slab n, nor a t above n index past it
    table = sampler.dp_partition(law_l9, 4)
    assert table.value(4, ORIGIN_1D) > 0.0
    for t in (-1, -5, 5, 100):
        assert table.value(t, ORIGIN_1D) == 0.0


def test_partition_matches_composition_oracle_truncated_law(step_law_l13):
    # restrict to short legs so the brute-force composition sum stays small
    sub = {s: p for s, p in step_law_l13.probs.items() if s.t <= 3}
    trunc = StepLaw(
        d=2, beta=1.2, cutoff=step_law_l13.cutoff, m_hat=step_law_l13.m_hat, probs=sub
    )
    table = sampler.dp_partition(trunc, 20, radius=40)
    oracle = composition_partition(law_triples(trunc), 20, 40)
    got = table.value(20, ORIGIN_1D)
    want = oracle[(20, ORIGIN_1D)]
    assert got == pytest.approx(want, rel=1e-12)
    # spot-check off-axis states as well
    for y in ((1,), (-3,), (7,)):
        assert table.value(19, y) == pytest.approx(
            oracle.get((19, y), 0.0), rel=1e-12, abs=1e-300
        )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_partition_matches_oracle_on_random_laws(data):
    support = [
        FrameSplit(t, (y,)) for t in (1, 2) for y in range(-2, 3)
    ]
    chosen = data.draw(
        st.lists(st.sampled_from(support), min_size=1, max_size=6, unique=True)
    )
    raw = data.draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    total = sum(raw)
    law = make_law({s: w / total for s, w in zip(chosen, raw)})
    n = data.draw(st.integers(2, 5))
    table = sampler.dp_partition(law, n, radius=6)
    oracle = composition_partition(law_triples(law), n, 6)
    for t in range(n + 1):
        for y in range(-6, 7):
            want = oracle.get((t, (y,)), 0.0)
            assert table.value(t, (y,)) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "d, cutoff, n, digest",
    [
        (2, 9, 512, "be4a9e1b6a230c4773aeaf4fe8c98d3aafd5e4920f17ac1e8a00738dc0743fe4"),
        (3, 7, 40, "fc2fa62b53ee9a098615e2fa89cb7090d08da2812ba1eab927f66456e28a986d"),
        (4, 5, 6, "5b7a5d6fe8d1b52d391b796592690a1e0016306a08f487558ce1bc3a02c4262c"),
    ],
)
def test_partition_table_golden_digest(d, cutoff, n, digest):
    # pins every mantissa, log scale and the leakage bit for bit, so any
    # change to the order of the DP's floating-point operations shows up
    table = sampler.dp_partition(calibrated_law(d, cutoff), n)
    data = table.mantissa.tobytes() + table.log_scale.tobytes() + repr(table.leakage).encode()
    assert hashlib.sha256(data).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_dp_repeats_the_per_step_dp_bit_for_bit(data):
    # step lengths with gaps ({1, 3}, {2, 3}, ...) leave lags dead and slabs
    # empty; a small block budget splits a slab's sum over several blocks
    d = data.draw(st.sampled_from((2, 3)))
    lengths = sorted(data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    support = [
        FrameSplit(t, y) for t in lengths for y in itertools.product(range(-2, 3), repeat=d - 1)
    ]
    chosen = data.draw(st.lists(st.sampled_from(support), min_size=1, max_size=8, unique=True))
    raw = data.draw(
        st.lists(st.floats(1e-3, 1.0), min_size=len(chosen), max_size=len(chosen))
    )
    law = make_law({s: w / sum(raw) for s, w in zip(chosen, raw)}, d=d)
    reach = max(abs(c) for s in chosen for c in s.y)
    radius = data.draw(st.integers(max(reach, 1), 6))
    n = data.draw(st.integers(1, 12))
    cells = data.draw(st.sampled_from((1, 40, sampler.BLOCK_CELLS)))
    with mock.patch.object(sampler, "BLOCK_CELLS", cells):
        table = sampler.dp_partition(law, n, radius)
    mantissa, log_scale = per_step_slabs(*sampler.law_arrays(law), n, radius, reach)
    assert table.mantissa.tobytes() == mantissa.tobytes()
    assert table.log_scale.tobytes() == log_scale.tobytes()


def test_partition_dp_holds_no_steps_by_box_temporary():
    # at d = 4, L = 5 the law has 129 steps and the wide box 39^3 cells, so
    # one (steps x box) temporary would be about 61 MB; the DP may hold its
    # two padded tables and one block of BLOCK_CELLS cells
    law = calibrated_law(4, 5)
    reach = max(abs(c) for s in law.probs for c in s.y)
    lag = max(s.t for s in law.probs)
    tracemalloc.start()
    try:
        table = sampler.dp_partition(law, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    wide = table.radius + max(2 * reach, (table.radius + 1) // 2)
    wide_cells = (lag + 7) * (2 * (wide + reach) + 1) ** 3
    assert peak < table.padded.nbytes + 8 * (wide_cells + sampler.BLOCK_CELLS)


# ---------------------------------------------------------------------------
# box sizing and leakage


def test_box_smaller_than_reach_raises(step_law_l13):
    with pytest.raises(BoxTooSmallError):
        sampler.dp_partition(step_law_l13, 10, radius=5)


def test_box_of_one_site_raises(degenerate_law):
    # the configuration refuses a radius below 1 too
    with pytest.raises(BoxTooSmallError):
        sampler.dp_partition(degenerate_law, 4, radius=0)


def test_tight_box_leaks_and_default_box_does_not():
    law = make_law(
        {
            FrameSplit(1, ORIGIN_1D): 0.5,
            FrameSplit(1, (1,)): 0.25,
            FrameSplit(1, (-1,)): 0.25,
        }
    )
    tight = sampler.dp_partition(law, 30, radius=1)
    assert tight.leakage > 1e-3
    with pytest.raises(LeakageError):
        sampler.require_leakage(tight)
    roomy = sampler.dp_partition(law, 30)
    assert roomy.leakage < sampler.MAX_LEAKAGE
    sampler.require_leakage(roomy)


def test_default_radius_covers_reach_and_gaussian_spread(step_law_l13):
    # the widest transverse displacement in this law spans 12 sites
    assert sampler.default_box_radius(step_law_l13, 1) == 12
    spread = math.ceil(
        4.0 * math.sqrt(400 * sampler.transverse_step_variance(step_law_l13))
    )
    assert sampler.default_box_radius(step_law_l13, 400) == spread == 101


def test_transverse_variance_pin(step_law_l13):
    # regression pin for the calibrated law at beta = 1.2, cutoff 13
    assert sampler.transverse_step_variance(step_law_l13) == pytest.approx(
        1.5919929413279668, rel=1e-12
    )
    assert sampler.transverse_step_variance(
        make_law({FrameSplit(1, (2,)): 0.5, FrameSplit(1, (-2,)): 0.5})
    ) == pytest.approx(4.0, rel=1e-15)


def test_real_law_leakage_is_negligible(law_l9):
    table = sampler.dp_partition(law_l9, 50)
    assert 0.0 <= table.leakage < 1e-9


# ---------------------------------------------------------------------------
# backward sampling


def test_degenerate_sampler_always_unit_steps(degenerate_law):
    table = sampler.dp_partition(degenerate_law, 5)
    for replicate in range(10):
        skeleton = sampler.sample_skeletons(degenerate_law, table, 3, [replicate])[0]
        assert skeleton.increments == (FrameSplit(1, ORIGIN_1D),) * 5


def test_sampled_skeletons_are_pinned_and_in_box(law_l9):
    n = 12
    table = sampler.dp_partition(law_l9, n)
    for skeleton in sampler.sample_skeletons(law_l9, table, seed=5, replicates=range(200)):
        assert sum(s.t for s in skeleton.increments) == n
        assert all(s.t >= 1 for s in skeleton.increments)
        running = 0
        for s in skeleton.increments:
            running += s.y[0]
            assert abs(running) <= table.radius
        assert running == 0


def test_sampler_matches_renewal_chain_law(law_l9):
    # the backward sampler reproduces the conditioned product law exactly;
    # compare against a direct composition enumeration of the same chain
    n, reps = 3, 100000
    oracle = renewal_conditioned_law(law_triples(law_l9), n)
    assert math.fsum(oracle.values()) == pytest.approx(1.0, abs=1e-12)
    table = sampler.dp_partition(law_l9, n)
    freq = sampler.sample_skeletons(law_l9, table, seed=0, replicates=range(reps)).tally()
    keyed = {tuple((s.t, tuple(s.y)) for s in k): c for k, c in freq.items()}
    # every sampled skeleton lies in the chain's support
    assert set(keyed) <= set(oracle)
    # frequencies of all non-negligible atoms sit within Monte Carlo error
    for atom, p in oracle.items():
        if p < 1e-3:
            continue
        z = abs(keyed.get(atom, 0) / reps - p) / math.sqrt(p * (1.0 - p) / reps)
        assert z <= 3.5, f"atom {atom}: z = {z:.2f}"
    tv = 0.5 * sum(
        abs(keyed.get(a, 0) / reps - oracle.get(a, 0.0)) for a in set(oracle) | set(keyed)
    )
    assert tv <= 0.01


def test_sampler_total_variation_against_exhaustive_law(law_l9):
    # the chain built from cutoff-9 steps differs from the exhaustively
    # enumerated conditioned law only through the length truncation, which
    # is far below Monte Carlo resolution at this replicate count
    n, reps = 3, 50000
    exact = counting.exact_conditioned_skeleton_law(2, n, 1.2, 9)
    table = sampler.dp_partition(law_l9, n)
    freq = sampler.sample_skeletons(law_l9, table, seed=0, replicates=range(reps)).tally()
    tv = 0.5 * sum(
        abs(freq.get(k, 0) / reps - exact.get(k, 0.0)) for k in set(exact) | set(freq)
    )
    assert tv <= 0.02


def test_renewal_law_time_reversal_symmetry(law_l9):
    # reversing the increment order and negating transverse parts maps the
    # chain to itself: products commute and the step law is symmetric in y
    oracle = renewal_conditioned_law(law_triples(law_l9), 3)
    for atom, p in oracle.items():
        mirrored = tuple(
            (t, tuple(-c for c in y)) for t, y in reversed(atom)
        )
        assert oracle[mirrored] == pytest.approx(p, rel=1e-12)


def test_unreachable_span_raises():
    # a law of double legs cannot hit an odd span
    law = make_law({FrameSplit(2, ORIGIN_1D): 1.0})
    table = sampler.dp_partition(law, 3)
    with pytest.raises(UnreachableStateError):
        sampler.sample_skeletons(law, table, seed=0, replicates=range(1))


def test_emptied_slab_raises_inside_the_sampling_loop():
    # With slabs 2 and 3 emptied, the pinned mass at (6, 0) stays positive
    # but state 4 has no predecessor: replicates whose first backward draw
    # is the double leg die in the second round, the others in the third.
    law = make_law({FrameSplit(1, ORIGIN_1D): 0.5, FrameSplit(2, ORIGIN_1D): 0.5})
    table = sampler.dp_partition(law, 6)
    broken = dataclasses.replace(
        table, padded=table.padded.copy(), log_scale=table.log_scale.copy()
    )
    broken.mantissa[2:4] = 0.0
    broken.log_scale[2:4] = -np.inf
    assert broken.value(6, ORIGIN_1D) > 0.0

    # the first draw only reads slabs 4 and 5, which the intact table shares
    reps = [9, 3, 14, 0, 7, 21, 5, 30, 12, 2]
    intact = sampler.sample_skeletons(law, table, seed=1, replicates=reps)
    doomed = [r for r, s in zip(reps, intact) if s.increments[-1].t == 2]
    assert doomed and doomed[0] != reps[0]
    with pytest.raises(UnreachableStateError, match=rf"^replicate {doomed[0]}:"):
        sampler.sample_skeletons(law, broken, seed=1, replicates=reps)


# ---------------------------------------------------------------------------
# determinism


def test_seed_and_replicate_determine_the_draw(law_l9):
    table = sampler.dp_partition(law_l9, 8)
    first = sampler.sample_skeletons(law_l9, table, seed=3, replicates=[7])[0]
    again = sampler.sample_skeletons(law_l9, table, seed=3, replicates=[7])[0]
    assert first == again
    other_seed = sampler.sample_skeletons(law_l9, table, seed=4, replicates=[7])[0]
    batch = sampler.sample_skeletons(law_l9, table, seed=3, replicates=range(64))
    assert batch[7] == first
    assert len({s.increments for s in batch} | {other_seed.increments}) > 1


def test_sampling_invariant_under_batching_and_threads(law_l9):
    # 4100 replicates are two batches, so threads = 2 runs on the pool
    table = sampler.dp_partition(law_l9, 10)
    reps = range(4100)
    assert len(reps) > sampler.BATCH_SIZE
    plain = sampler.sample_skeletons(law_l9, table, seed=11, replicates=reps)
    threaded = sampler.sample_skeletons(
        law_l9, table, seed=11, replicates=reps, threads=2
    )
    halves = [
        sampler.sample_skeletons(law_l9, table, seed=11, replicates=part)
        for part in (range(0, 2000), range(2000, 4100))
    ]
    assert list(plain) == list(threaded) == list(halves[0]) + list(halves[1])
    for r in (0, 1, 4094, 4095, 4096, 4097, 4099):
        single = sampler.sample_skeletons(law_l9, table, seed=11, replicates=[r])
        assert single[0] == plain[r]


def test_batch_layout_and_tally_match_its_skeletons(law_l9):
    table = sampler.dp_partition(law_l9, 4)
    batch = sampler.sample_skeletons(law_l9, table, seed=6, replicates=range(500))
    rows = [
        (r, len(s.increments), i)
        for r, s in enumerate(batch)
        for i in range(len(s.increments))
    ]
    assert batch.layout().tolist() == [list(row) for row in rows]
    tally = batch.tally()
    assert tally == Counter(s.increments for s in batch)
    # keys come in order of first appearance
    assert list(tally) == list(dict.fromkeys(s.increments for s in batch))
    assert batch[-1] == batch[499]
    with pytest.raises(IndexError):
        batch[500]


def increments_digest(skeletons: list[Skeleton]) -> str:
    text = "\n".join(
        " ".join(f"{s.t}:{','.join(map(str, s.y))}" for s in skeleton.increments)
        for skeleton in skeletons
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "n, reps, digest, d, cutoff",
    [
        # n = 8 draws its uniforms on the vectorised short-stream path
        (8, 300, "b724385ba71a8a1005d5fe59be91f785e8463caa68beda0ae0f7f5a90abec8f9", 2, 9),
        # n = 512 is over four times the short-stream threshold
        (512, 64, "36004873289a56456c5c466ebca2ac2c9ab255b605935ee2ab797fefbd791368", 2, 9),
        # three transverse axes; recorded with the per-round kernel sampler
        (6, 300, "789e7340e7fe1c629c3453831bb081c6bb89d09c8672492f075e746d6d9a8964", 4, 5),
    ],
)
def test_sampled_increments_golden_digest(n, reps, digest, d, cutoff):
    # recorded with the sampler that built one np.random.Philox per stream
    # and one backward kernel per replicate; any change to the RNG streams
    # or to the kernel arithmetic shows up here
    law = calibrated_law(d, cutoff)
    table = sampler.dp_partition(law, n)
    skeletons = sampler.sample_skeletons(law, table, seed=11, replicates=range(reps))
    assert increments_digest(skeletons) == digest


# ---------------------------------------------------------------------------
# scaling and evaluation


def test_scale_degenerate_skeleton_is_zero_function():
    batch = batch_of(Skeleton(increments=(FrameSplit(1, ORIGIN_1D),) * 4, n=4))
    times, values = scaled_knots(batch[0])
    assert np.allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert not np.any(values)
    assert not sampler.evaluate_process_grid(batch, np.linspace(0.0, 1.0, 9)).any()


def test_scale_single_increment_has_two_knots():
    batch = batch_of(Skeleton(increments=(FrameSplit(4, ORIGIN_1D),), n=4))
    times, values = scaled_knots(batch[0])
    assert times == [0.0, 1.0]
    assert not np.any(values)
    assert not sampler.evaluate_process_grid(batch, np.linspace(0.0, 1.0, 9)).any()


def test_scale_tent_skeleton_and_interpolation():
    batch = batch_of(Skeleton(increments=(FrameSplit(2, (2,)), FrameSplit(2, (-2,))), n=4))
    times, values = scaled_knots(batch[0])
    assert times == [0.0, 0.5, 1.0]
    assert [v[0] for v in values] == [0.0, 1.0, 0.0]
    assert sampler.evaluate_process_grid(batch, [0.25])[0][0][0] == pytest.approx(0.5)
    assert sampler.evaluate_process_grid(batch, [0.5])[0][0][0] == pytest.approx(1.0)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = sampler.evaluate_process_grid(batch, grid)
    assert values.shape == (1, 5, 1)
    assert values[0, :, 0] == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0])


def test_grid_evaluation_matches_pointwise(law_l9):
    table = sampler.dp_partition(law_l9, 16)
    grid = np.linspace(0.0, 1.0, 11)
    batch = sampler.sample_skeletons(law_l9, table, seed=2, replicates=range(20))
    stacked = sampler.evaluate_process_grid(batch, grid)
    for skeleton, rows in zip(batch, stacked):
        for j, t in enumerate(grid):
            assert rows[j].tolist() == interpolate_process(skeleton, t)


def law_d3() -> StepLaw:
    steps = {(1, (0, 0)): 0.2, (2, (1, -1)): 0.1, (2, (-1, 1)): 0.1}
    steps |= {(1, y): 0.1 for y in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    steps |= {(3, (0, 2)): 0.1, (3, (0, -2)): 0.1}
    return make_law({FrameSplit(t, y): p for (t, y), p in steps.items()}, d=3)


@pytest.mark.parametrize(
    "law_name, n, grid",
    [
        # every decile is a knot time of some skeleton at n = 10
        ("law_l9", 10, np.round(np.arange(0, 11) * 0.1, 10)),
        ("law_l9", 37, np.linspace(0.0, 1.0, 101)),
        ("law_d3", 10, np.round(np.arange(0, 11) * 0.1, 10)),
        ("law_d3", 23, np.linspace(0.0, 1.0, 61)),
    ],
)
def test_batched_evaluation_is_np_interp_bit_for_bit(law_l9, law_name, n, grid):
    law = law_l9 if law_name == "law_l9" else law_d3()
    table = sampler.dp_partition(law, n)
    batch = sampler.sample_skeletons(law, table, seed=4, replicates=range(200))
    values = sampler.evaluate_process_grid(batch, grid)
    assert values.shape == (200, grid.size, law.d - 1)
    expected = [[interpolate_process(s, t) for t in grid] for s in batch]
    assert values.tolist() == expected


def test_scaled_processes_are_pinned_at_both_ends(law_l9):
    table = sampler.dp_partition(law_l9, 9)
    batch = sampler.sample_skeletons(law_l9, table, seed=8, replicates=range(50))
    for skeleton in batch:
        times, values = scaled_knots(skeleton)
        assert times[0] == 0.0 and times[-1] == 1.0
        assert not any(values[0])
        assert not any(values[-1])
    assert not sampler.evaluate_process_grid(batch, [0.0, 1.0]).any()


def test_evaluate_rejects_times_outside_unit_interval():
    batch = batch_of(Skeleton(increments=(FrameSplit(2, ORIGIN_1D),), n=2))
    with pytest.raises(ValueError):
        sampler.evaluate_process_grid(batch, [-0.01])
    with pytest.raises(ValueError):
        sampler.evaluate_process_grid(batch, [1.01])
    with pytest.raises(ValueError):
        sampler.evaluate_process_grid(batch, np.array([0.5, 1.5]))


def test_skeleton_validation_errors():
    with pytest.raises(ValueError, match="no increments"):
        SkeletonBatch(n=0, steps=np.zeros((0, 2), dtype=np.int64), offsets=np.array([0, 0]))
    with pytest.raises(ValueError, match="advance"):
        batch_of(Skeleton(increments=(FrameSplit(0, (1,)),), n=0))
    with pytest.raises(ValueError, match="span"):
        batch_of(Skeleton(increments=(FrameSplit(2, (0,)),), n=3))
    drifting = Skeleton(increments=(FrameSplit(1, (1,)), FrameSplit(1, (1,))), n=2)
    with pytest.raises(ValueError, match="pinned"):
        batch_of(drifting)
    # one bad skeleton among good ones is enough
    good = Skeleton(increments=(FrameSplit(2, (0,)),), n=2)
    with pytest.raises(ValueError, match="pinned"):
        batch_of(good, drifting, good)


# ---------------------------------------------------------------------------
# exhaustive full-walk sampling


def test_exhaustive_single_walk_point_mass():
    walks = sampler.ExhaustiveWalkSampler(2, 1, 1)
    assert paths_of(walks.walks) == [((0, 0), (1, 0))]


def test_exhaustive_walks_are_bridges_to_the_pin():
    walks = sampler.ExhaustiveWalkSampler(2, 4, 8)
    paths = paths_of(walks.walks)
    assert paths
    for walk in paths:
        assert naive_is_bridge(walk)
        assert walk[-1] == (4, 0)


def test_exhaustive_draw_is_deterministic_across_builds():
    one = sampler.ExhaustiveWalkSampler(2, 3, 7)
    two = sampler.ExhaustiveWalkSampler(2, 3, 7)
    assert len(one.walks) == len(two.walks)
    assert all(map(np.array_equal, one.walks, two.walks))
    assert all(walk[-1] == (3, 0) for walk in paths_of(one.walks))


def test_exhaustive_span_cap_and_empty_support_errors():
    with pytest.raises(ValueError):
        sampler.ExhaustiveWalkSampler(2, 8, 20)
    with pytest.raises(NoBridgesError):
        sampler.ExhaustiveWalkSampler(2, 3, 2)
