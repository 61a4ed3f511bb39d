from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawbridge import cli, counting, renewal, sampler
from sawbridge.counting import WalkClass
from sawbridge.lattice import FrameSplit
from sawbridge.renewal import StepLaw
from sawbridge.rng import uniform_block
from sawbridge.sampler import Skeleton, SkeletonBatch

import oracles
from oracles import (
    batch_of,
    composition_partition,
    flat_key,
    interpolate_process,
    naive_is_bridge,
    partition_box,
    partition_value,
    paths_of,
    per_step_slabs,
    renewal_conditioned_law,
    round_order_sample,
    scaled_knots,
)

ORIGIN_1D = (0,)


def make_law(probs: dict[FrameSplit, float], d: int = 2) -> StepLaw:
    items = sorted(probs.items())
    steps = np.array([(s.t, *s.y) for s, _ in items], dtype=np.int64).reshape(-1, d)
    p = np.array([p for _, p in items], dtype=np.float64)
    return StepLaw(d=d, beta=1.2, cutoff=0, m_hat=0.0, steps=steps, p=p)


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
        assert partition_value(table, t, ORIGIN_1D) == pytest.approx(1.0, abs=1e-15)
    assert partition_value(table, 3, (1,)) == 0.0
    assert table.leakage == 0.0


def test_partition_two_span_law_by_hand():
    # compositions of 2: two unit legs (1/4) or one double leg (1/2)
    law = make_law({FrameSplit(1, ORIGIN_1D): 0.5, FrameSplit(2, ORIGIN_1D): 0.5})
    table = sampler.dp_partition(law, 2)
    assert partition_value(table, 1, ORIGIN_1D) == pytest.approx(0.5, rel=1e-15)
    assert partition_value(table, 2, ORIGIN_1D) == pytest.approx(0.75, rel=1e-15)


def test_partition_empty_slab_has_no_mass():
    law = make_law({FrameSplit(2, ORIGIN_1D): 1.0})
    table = sampler.dp_partition(law, 4)
    assert partition_value(table, 1, ORIGIN_1D) == 0.0
    assert partition_value(table, 3, ORIGIN_1D) == 0.0
    assert partition_value(table, 4, ORIGIN_1D) == pytest.approx(1.0, abs=1e-15)


def test_partition_value_outside_box_is_zero(law_l9):
    table = sampler.dp_partition(law_l9, 4)
    assert partition_value(table, 0, ORIGIN_1D) == 1.0
    assert partition_value(table, 2, (table.radius + 1,)) == 0.0
    assert partition_value(table, 2, (-table.radius - 1,)) == 0.0


def test_partition_value_outside_the_slabs_is_zero(law_l9):
    # a negative t must not wrap around to slab n, nor a t above n index past it
    table = sampler.dp_partition(law_l9, 4)
    assert partition_value(table, 4, ORIGIN_1D) > 0.0
    for t in (-1, -5, 5, 100):
        assert partition_value(table, t, ORIGIN_1D) == 0.0


def test_partition_matches_composition_oracle_truncated_law(step_law_l13):
    # restrict to short legs so the brute-force composition sum stays small
    sub = step_law_l13.steps[:, 0] <= 3
    trunc = StepLaw(
        d=2, beta=1.2, cutoff=step_law_l13.cutoff, m_hat=step_law_l13.m_hat,
        steps=step_law_l13.steps[sub], p=step_law_l13.p[sub],
    )
    table = sampler.dp_partition(trunc, 20, radius=40)
    oracle = composition_partition(law_triples(trunc), 20, 40)
    got = partition_value(table, 20, ORIGIN_1D)
    want = oracle[(20, ORIGIN_1D)]
    assert got == pytest.approx(want, rel=1e-12)
    # spot-check off-axis states as well
    for y in ((1,), (-3,), (7,)):
        assert partition_value(table, 19, y) == pytest.approx(
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
    oracle = composition_partition(law_triples(law), n, 6)
    if oracle.get((n, ORIGIN_1D), 0.0) == 0.0:
        with pytest.raises(ValueError, match=rf"^pinned mass at \({n}, 0̃\) is zero"):
            sampler.dp_partition(law, n, radius=6)
        return
    table = sampler.dp_partition(law, n, radius=6)
    for t in range(n + 1):
        for y in range(-6, 7):
            want = oracle.get((t, (y,)), 0.0)
            got = partition_value(table, t, (y,))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


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
    data = partition_box(table).tobytes() + table.log_scale.tobytes()
    data += repr(table.leakage).encode()
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
    # the slabs themselves, so spans the law cannot reach are covered too
    with mock.patch.object(sampler, "BLOCK_CELLS", cells):
        padded, log_scale = sampler._forward_slabs(law, n, radius, reach)
    mantissa, want_log_scale = per_step_slabs(
        law.steps[:, 0], law.steps[:, 1:], law.p, n, radius, reach
    )
    table = sampler.PartitionTable(n, radius, padded, log_scale, leakage=0.0)
    assert partition_box(table).tobytes() == mantissa.tobytes()
    assert log_scale.tobytes() == want_log_scale.tobytes()


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
    with pytest.raises(
        ValueError, match=r"^box radius 5 is below 1 or below the law's transverse reach \d+$"
    ):
        sampler.dp_partition(step_law_l13, 10, radius=5)


def test_box_of_one_site_raises(degenerate_law):
    # the configuration refuses a radius below 1 too
    with pytest.raises(
        ValueError, match="^box radius 0 is below 1 or below the law's transverse reach 0$"
    ):
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
    with pytest.raises(cli.ThresholdError, match=r"^box truncation leaks .* >= 1\.0e-06; "):
        cli.require_leakage(tight)
    roomy = sampler.dp_partition(law, 30)
    assert roomy.leakage < cli.MAX_LEAKAGE
    cli.require_leakage(roomy)


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
    oracle = {
        flat_key(atom): p
        for atom, p in renewal_conditioned_law(law_triples(law_l9), n).items()
    }
    assert math.fsum(oracle.values()) == pytest.approx(1.0, abs=1e-12)
    table = sampler.dp_partition(law_l9, n)
    keyed = sampler.sample_skeletons(law_l9, table, seed=0, replicates=range(reps)).tally()
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
    # a law of double legs cannot hit an odd span: its table is refused
    law = make_law({FrameSplit(2, ORIGIN_1D): 1.0})
    with pytest.raises(
        ValueError, match=r"^pinned mass at \(3, 0̃\) is zero; box or law misconfigured$"
    ):
        sampler.dp_partition(law, 3)


def emptied(table: sampler.PartitionTable, slabs) -> sampler.PartitionTable:
    """A copy of table with the given slabs emptied in its box and log scale,
    so in-box states above them can be left with no predecessor."""
    broken = dataclasses.replace(
        table, padded=table.padded.copy(), log_scale=table.log_scale.copy()
    )
    partition_box(broken)[list(slabs)] = 0.0
    broken.log_scale[list(slabs)] = -np.inf
    return broken


def test_emptied_slab_raises_inside_the_sampling_loop():
    # With slabs 2 and 3 emptied, the pinned mass at (6, 0) stays positive
    # but state 4 has no predecessor: replicates whose first backward draw
    # is the double leg die in the second round, the others in the third.
    law = make_law({FrameSplit(1, ORIGIN_1D): 0.5, FrameSplit(2, ORIGIN_1D): 0.5})
    table = sampler.dp_partition(law, 6)
    broken = emptied(table, (2, 3))
    assert partition_value(broken, 6, ORIGIN_1D) > 0.0

    # the first draw only reads slabs 4 and 5, which the intact table shares
    reps = [9, 3, 14, 0, 7, 21, 5, 30, 12, 2]
    intact = sampler.sample_skeletons(law, table, seed=1, replicates=reps)
    doomed = [r for r, s in zip(reps, intact) if s.increments[-1].t == 2]
    assert doomed and doomed[0] != reps[0]
    with pytest.raises(RuntimeError, match=rf"^replicate {doomed[0]}: no in-box predecessor"):
        sampler.sample_skeletons(law, broken, seed=1, replicates=reps)


def test_the_refusal_names_the_earliest_pick_not_the_highest_slab():
    # Every replicate goes 12 -> 11 (slab 8 is empty).  From 11 those that
    # go to 7 die on their third pick (slabs 6 and 3 are empty), the others
    # go 10 -> 9 and die on their fourth (slabs 8 and 5).  The first
    # replicates in the list, 39, 38 and 37, go to 10; 36 is the first to
    # go to 7.  A slab-order draw meets slab 9 before slab 7, so naming the
    # first death it meets would name 39.
    law = make_law({FrameSplit(1, ORIGIN_1D): 0.5, FrameSplit(4, ORIGIN_1D): 0.5})
    broken = emptied(sampler.dp_partition(law, 12), (3, 5, 6, 8))
    reps = list(range(39, -1, -1))
    message = r"^replicate 36: no in-box predecessor"
    with pytest.raises(RuntimeError, match=message):
        round_order_sample(law, broken, 1, reps)
    with pytest.raises(RuntimeError, match=message):
        sampler.sample_skeletons(law, broken, seed=1, replicates=reps)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slab_order_repeats_the_round_order_sampler_bit_for_bit(data):
    # step lengths with gaps, boxes from the reach up, unordered replicate
    # lists; emptied slabs strand replicates at states with no predecessor
    d = data.draw(st.sampled_from((2, 3)))
    lengths = data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))
    support = [
        FrameSplit(t, y)
        for t in sorted(lengths)
        for y in itertools.product(range(-2, 3), repeat=d - 1)
    ]
    chosen = data.draw(st.lists(st.sampled_from(support), min_size=1, max_size=8, unique=True))
    # the unit axis step makes every span reachable
    chosen = list(dict.fromkeys([FrameSplit(1, (0,) * (d - 1)), *chosen]))
    raw = data.draw(
        st.lists(st.floats(1e-3, 1.0), min_size=len(chosen), max_size=len(chosen))
    )
    law = make_law({s: w / sum(raw) for s, w in zip(chosen, raw)}, d=d)
    reach = max(abs(c) for s in chosen for c in s.y)
    n = data.draw(st.integers(1, 40))
    table = sampler.dp_partition(law, n, radius=data.draw(st.integers(max(reach, 1), reach + 4)))
    table = emptied(table, data.draw(st.sets(st.integers(0, n), max_size=3)))
    reps = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True))
    seed = data.draw(st.integers(0, 2**32))
    # a stream can draw exactly 0.0; then the target is 0 and a row whose
    # first steps weigh 0 tells `cum > target` from `cum >= target`
    uniforms = uniform_block(seed, reps, n).copy()
    uniforms.flat[sorted(data.draw(st.sets(st.integers(0, uniforms.size - 1), max_size=20)))] = 0.0

    def outcome(sample):
        try:
            picks, rounds = sample(law, table, seed, reps)
        except RuntimeError as refusal:
            return str(refusal)
        return picks.dtype, picks.tolist(), rounds.dtype, rounds.tolist()

    with mock.patch.object(sampler, "uniform_block", lambda *_: uniforms.copy()), \
            mock.patch.object(oracles, "uniform_block", lambda *_: uniforms.copy()):
        assert outcome(sampler._sample_batch) == outcome(round_order_sample)


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


def test_the_pool_starts_at_most_one_worker_per_batch(law_l9, monkeypatch):
    # a fork-started pool forks all of its max_workers at once; this
    # in-process stand-in records how many were asked for and starts none
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    table = sampler.dp_partition(law_l9, 10)
    for batches, threads in ((2, 64), (3, 2)):
        reps = range((batches - 1) * sampler.BATCH_SIZE + 1)
        pooled = sampler.sample_skeletons(
            law_l9, table, seed=11, replicates=reps, threads=threads
        )
        serial = sampler.sample_skeletons(law_l9, table, seed=11, replicates=reps)
        assert np.array_equal(pooled.steps, serial.steps)
        assert np.array_equal(pooled.offsets, serial.offsets)
    assert sizes == [2, 2]
    assert multiprocessing.active_children() == []


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
    assert tally == Counter(flat_key(s.increments) for s in batch)
    # keys come in order of first appearance
    assert list(tally) == list(dict.fromkeys(flat_key(s.increments) for s in batch))
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
    with pytest.raises(
        ValueError, match=r"^no bridge reaches \(3, 0\) within 2 steps; need cutoff >= 3$"
    ):
        sampler.ExhaustiveWalkSampler(2, 3, 2)
