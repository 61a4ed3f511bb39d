from __future__ import annotations

import hashlib
import inspect
import math
import tracemalloc
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from sawbridge import counting, renewal
from sawbridge.counting import WalkClass

# OEIS A001411: self-avoiding walks on Z^2 by number of steps.
C_SQUARE = [
    1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932, 881500,
]

# sha256 of the save_count_table bytes (no config) written from tables of the
# unreduced depth-first search over every walk; the symmetry-reduced search
# must reproduce them byte for byte.
GOLDEN_CACHE_SHA256 = {
    (2, 11, WalkClass.ALL): "c8891286541a58dd38bdedb2438c1289122f91ae71cc4cccff72139fc6b6c36e",
    (2, 11, WalkClass.BRIDGE): "b0fcc41d6ac223f568a48c54d9e3baad6edd46b0d16d28ef62ce7d4d8f78ccf2",
    (2, 11, WalkClass.IRREDUCIBLE_BRIDGE): "febbba2a3fc8a9aa791f893d4e5df90b5a41acfca477b97c121fb7d662d804ce",
    (3, 6, WalkClass.ALL): "342e0212797347fa5901a559f1bdcd6b4d0c13958a0a4a7fea521230db6d4cfd",
    (3, 6, WalkClass.BRIDGE): "e841a068d863b4a5af3e496436957d71b89d4e09ad6674c1541628c19aa7ed3b",
    (3, 6, WalkClass.IRREDUCIBLE_BRIDGE): "e7356948968f4e499435458ab8ea88817a13e039e37bd563b4a049fe43b5e1f5",
    # L = 13 is the cutoff of the long-span and short-span runs; d = 4 is the
    # first case with three transverse axes to clip
    (2, 13, WalkClass.IRREDUCIBLE_BRIDGE): "30db4d8134dab409356fa7affeb0a46546674993d63bc7728d06cca4ef194e6e",
    (4, 6, WalkClass.IRREDUCIBLE_BRIDGE): "929b02e975d0c4c935a986097015529a3d490813df6c34ed37b88a29d630e702",
    # written by the symmetry-reduced search with a per-row orbit loop, before
    # the count grid; d = 4 is where the transposes act on three axes at once
    (4, 5, WalkClass.ALL): "ba9eb4ced8baf1e1c1eda992891c48f4321a059a2ab36c33a190447e8e09364b",
    (4, 5, WalkClass.BRIDGE): "b6d8bd7aeef235dd6f93ce11eb555b5266d19293092c2bed3da07e410fdfdeaf",
}


def count_row(table: counting.CountTable, site: tuple[int, ...]) -> np.ndarray:
    """Counts over step numbers 0..cutoff at an endpoint; zeros off the table."""
    return table.counts.get(site, np.zeros(table.cutoff + 1, dtype=np.int64))


def assert_table_matches_naive(table: counting.CountTable, naive: dict) -> None:
    sites = set(table.counts) | set(naive)
    for site in sites:
        expected = naive.get(site, [0] * (table.cutoff + 1))
        assert list(count_row(table, site)) == expected, f"mismatch at {site}"


@pytest.mark.parametrize(
    "d,cutoff,kind,walk_class",
    [
        (2, 6, "all", WalkClass.ALL),
        (2, 7, "bridge", WalkClass.BRIDGE),
        (2, 7, "irreducible", WalkClass.IRREDUCIBLE_BRIDGE),
        (3, 4, "all", WalkClass.ALL),
        (3, 5, "bridge", WalkClass.BRIDGE),
        (3, 5, "irreducible", WalkClass.IRREDUCIBLE_BRIDGE),
        # d = 4 is the first dimension where an orbit map has more than one
        # remaining axis to place
        (4, 3, "all", WalkClass.ALL),
        (4, 4, "bridge", WalkClass.BRIDGE),
        (4, 4, "irreducible", WalkClass.IRREDUCIBLE_BRIDGE),
    ],
)
def test_counts_match_naive_oracle(d, cutoff, kind, walk_class):
    table = counting.enumerate_counts(d, cutoff, walk_class)
    assert_table_matches_naive(table, oracles.naive_counts(d, cutoff, kind))


def test_totals_reproduce_known_square_lattice_counts(all_table_l10):
    totals, growth = counting.total_counts(all_table_l10)
    assert list(totals) == C_SQUARE[:11]
    assert len(growth) == 10
    assert all(g > 0 for g in growth)
    # c_N^(1/N) decreases toward the growth constant on this range
    assert all(a > b for a, b in zip(growth, growth[1:]))


def test_totals_reproduce_known_square_lattice_counts_to_13_steps():
    totals, _ = counting.total_counts(counting.enumerate_counts(2, 13, WalkClass.ALL))
    assert list(totals) == C_SQUARE


def test_subadditivity_of_counts(all_table_l10):
    totals, _ = counting.total_counts(all_table_l10)
    for m in range(1, 10):
        for n in range(1, 11 - m):
            assert totals[m + n] <= totals[m] * totals[n]


def test_one_step_tables():
    table = counting.enumerate_counts(2, 1, WalkClass.ALL)
    assert table.counts[(1, 0)][1] == 1
    assert table.counts[(0, 1)][1] == 1
    totals, _ = counting.total_counts(table)
    assert totals[1] == 4

    irr = counting.enumerate_counts(2, 1, WalkClass.IRREDUCIBLE_BRIDGE)
    assert irr.counts[(1, 0)][1] == 1
    # the single step right is the only 1-step bridge
    assert set(irr.counts) == {(0, 0), (1, 0)}
    assert irr.counts[(0, 0)][0] == 1


def test_cutoff_zero_table():
    table = counting.enumerate_counts(2, 0, WalkClass.ALL)
    totals, growth = counting.total_counts(table)
    assert list(totals) == [1]
    assert growth.size == 0
    assert list(table.counts) == [(0, 0)]


def test_row_weight_examples():
    irr = counting.enumerate_counts(2, 1, WalkClass.IRREDUCIBLE_BRIDGE)
    weights = counting.row_weights(irr.rows, counting.length_weights(1, 1.2))
    assert list(irr.counts) == [(0, 0), (1, 0)]
    assert weights.tolist() == [1.0, pytest.approx(math.exp(-1.2), rel=1e-15)]

    # exactly two 3-step walks return to (1,0): up-right-down and down-right-up
    naive = oracles.naive_counts(2, 3, "all")
    assert naive[(1, 0)] == [0, 1, 0, 2]
    table = counting.enumerate_counts(2, 3, WalkClass.ALL)
    expected = math.exp(-1.2) + 2 * math.exp(-3.6)
    seq, _ = counting.mass_estimate(table, 1.2, 1)
    assert math.exp(-seq[0]) == pytest.approx(expected, rel=1e-14)

    # truncated weights grow with the cutoff
    wider = counting.enumerate_counts(2, 5, WalkClass.ALL)
    assert counting.mass_estimate(wider, 1.2, 1)[0][0] <= seq[0]

    with pytest.raises(ValueError):
        counting.mass_estimate(table, 0.0, 1)


def test_mass_estimate_behaviour():
    table = counting.enumerate_counts(2, 3, WalkClass.ALL)
    seq, est = counting.mass_estimate(table, 8.0, 1)
    assert est == pytest.approx(8.0, abs=1e-5)

    narrow = counting.enumerate_counts(2, 8, WalkClass.ALL)
    wide = counting.enumerate_counts(2, 12, WalkClass.ALL)
    seq_n, est_n = counting.mass_estimate(narrow, 1.2, 6)
    seq_w, est_w = counting.mass_estimate(wide, 1.2, 6)
    assert np.all(np.isfinite(seq_w)) and np.all(seq_w > 0)
    # more walks counted at larger cutoff, so the decay estimate drops
    assert est_w < est_n

    with pytest.raises(
        ValueError, match="^zero truncated weight at axis distance 3; increase the cutoff$"
    ):
        counting.mass_estimate(counting.enumerate_counts(2, 2, WalkClass.ALL), 1.2, 3)
    with pytest.raises(ValueError):
        counting.mass_estimate(
            counting.enumerate_counts(2, 4, WalkClass.BRIDGE), 1.2, 2
        )


def read_knots(path, mask):
    """Bridge verdict, break points and regeneration sites of a walk, read
    off its row of the knot mask."""
    sites = [tuple(path[i]) for i in np.flatnonzero(mask)[1:-1]]
    return bool(mask[0]), [site[0] for site in sites], sites


def classify(path):
    return read_knots(path, counting.regeneration_knots(np.array([path]))[0])


def test_classify_bridge_examples():
    straight = [(0, 0), (1, 0), (2, 0)]
    assert classify(straight) == (True, [1], [(1, 0)])

    returning = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert classify(returning) == (False, [], [])

    # the walk dips back to level 1 after reaching level 2, so level 1 is
    # not a break point; level 2 is (never down-crossed)
    wiggle = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (2, 2), (3, 2)]
    assert classify(wiggle) == (True, [2], [(2, 2)])
    assert oracles.naive_break_points(wiggle) == [2]
    # a bridge may start off the origin
    assert classify([(3, 1), (4, 1), (4, 2), (5, 2)]) == (True, [4], [(4, 2)])


def test_classify_matches_oracle_on_all_paths_to_ten_steps():
    # every walk of 0..10 steps, bridges or not, one stack per length
    by_length: dict[int, list] = {}
    for path in oracles.iter_saws(2, 10):
        by_length.setdefault(len(path), []).append(path)
    checked = 0
    for paths in by_length.values():
        masks = counting.regeneration_knots(np.array(paths))
        bridges = []
        for path, mask in zip(paths, masks):
            is_bridge, breaks, sites = read_knots(path, mask)
            assert is_bridge == oracles.naive_is_bridge(path)
            if is_bridge:
                assert breaks == oracles.naive_break_points(path)
                bridges.append(path)
            else:
                assert not mask.any()
            checked += 1
        # the knots' increments are the skeleton; one site has none
        for rows, knots in counting.knot_stacks(np.array(bridges)):
            for row, increments in zip(rows, np.diff(knots, axis=1).tolist()):
                path = bridges[row]
                expected = oracles.naive_skeleton(path) if len(path) > 1 else ()
                assert tuple(map(tuple, increments)) == expected
    assert checked == sum(C_SQUARE[:11])


@given(oracles.walk_strategy(3, max_steps=10))
def test_classify_matches_oracle_random_d3(path):
    is_bridge, breaks, _ = classify(path)
    assert is_bridge == oracles.naive_is_bridge(path)
    if is_bridge:
        assert breaks == oracles.naive_break_points(path)


def skeleton_of(path) -> list[list[int]]:
    [(_, knots)] = counting.knot_stacks(np.array([path]))
    return np.diff(knots[0], axis=0).tolist()


def test_skeleton_increments_sum_to_displacement():
    path = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (2, 2), (3, 2)]
    assert np.sum(skeleton_of(path), axis=0).tolist() == [3, 2]
    assert skeleton_of([(0, 0)]) == []
    with pytest.raises(ValueError, match="only for bridges"):
        skeleton_of([(0, 0), (0, 1)])


def table_rows(table: counting.CountTable) -> dict[tuple[int, ...], list[int]]:
    return {site: [int(c) for c in row] for site, row in table.counts.items()}


@pytest.mark.parametrize("d,cutoff", [(2, 8), (3, 5)])
def test_count_level_renewal_identity(d, cutoff):
    bridge = counting.enumerate_counts(d, cutoff, WalkClass.BRIDGE)
    irr = counting.enumerate_counts(d, cutoff, WalkClass.IRREDUCIBLE_BRIDGE)
    residual = oracles.oz_residual(
        table_rows(bridge), table_rows(irr), cutoff + 1
    )
    assert residual == 0


@pytest.mark.parametrize("d,cutoff", [(2, 8), (3, 5)])
def test_class_domination(d, cutoff):
    full = counting.enumerate_counts(d, cutoff, WalkClass.ALL)
    bridge = counting.enumerate_counts(d, cutoff, WalkClass.BRIDGE)
    irr = counting.enumerate_counts(d, cutoff, WalkClass.IRREDUCIBLE_BRIDGE)
    for site in set(full.counts) | set(bridge.counts) | set(irr.counts):
        a, b, i = count_row(full, site), count_row(bridge, site), count_row(irr, site)
        assert np.all(i <= b)
        assert np.all(b <= a)


def _signed_permutations(y: tuple[int, ...]) -> set[tuple[int, ...]]:
    import itertools

    out = set()
    for perm in itertools.permutations(range(len(y))):
        for signs in itertools.product((1, -1), repeat=len(y)):
            out.add(tuple(sign * y[i] for sign, i in zip(signs, perm)))
    return out


@pytest.mark.parametrize(
    "d,cutoff,walk_class",
    [(2, 8, WalkClass.ALL), (2, 8, WalkClass.BRIDGE), (3, 5, WalkClass.IRREDUCIBLE_BRIDGE)],
)
def test_transverse_symmetry(d, cutoff, walk_class):
    table = counting.enumerate_counts(d, cutoff, walk_class)
    for site, counts in table.counts.items():
        for image in _signed_permutations(site[1:]):
            assert np.array_equal(counts, count_row(table, (site[0],) + image))


# a 7-step plane walk whose last site, the origin, has every neighbour visited
TRAPPED_PLANE_WALK = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (0, 0)]


def children_reference(walks: np.ndarray, steps: np.ndarray) -> list[list[int]]:
    """[parents, step indices, sites] of every one-step extension onto a
    free site, parent-major and step-minor, each child checked against
    every past site of its parent."""
    found = [
        (row, index, walk[-1] + step)
        for row, walk in enumerate(walks.tolist())
        for index, step in enumerate(steps.tolist())
        if walk[-1] + step not in walk
    ]
    return [list(column) for column in zip(*found)] or [[], [], []]


@given(st.data())
def test_children_equal_the_every_site_reference(data):
    d = data.draw(st.sampled_from([2, 3, 4]))
    trapped = d == 2 and data.draw(st.booleans())
    # 0..9 steps gives walks of both parities; the trapped walk has 7
    length = 7 if trapped else data.draw(st.integers(0, 9))
    radius = 10
    steps = counting._unit_codes(d, radius)
    origin = ((2 * radius + 1) ** d - 1) // 2
    choices = st.lists(st.integers(0, 2 * d - 1), min_size=length, max_size=length)
    walks = []
    for picks in data.draw(st.lists(choices, min_size=1, max_size=6)):
        walk = [origin]
        for pick in picks:
            free = [walk[-1] + step for step in steps.tolist() if walk[-1] + step not in walk]
            assume(free)
            walk.append(free[pick % len(free)])
        walks.append(walk)
    if trapped:
        row = data.draw(st.integers(0, len(walks)))
        codes = np.array(TRAPPED_PLANE_WALK) @ (1, 2 * radius + 1) + origin
        walks.insert(row, codes.tolist())
    walks = np.array(walks, dtype=steps.dtype)
    parent, step, site = counting._children(walks, steps)
    assert [parent.tolist(), step.tolist(), site.tolist()] == children_reference(
        walks, steps
    )
    assert site.dtype == steps.dtype
    if trapped:
        assert row not in parent


@given(
    st.sampled_from([(2, 9), (3, 6), (4, 4)]).flatmap(
        lambda dims: st.tuples(
            st.just(dims[0]), st.integers(0, dims[1]), st.integers(1, 5)
        )
    )
)
def test_frontier_tally_equals_the_recursive_search(case):
    # blocks of 1-5 walks split every level the frontier extends
    d, cutoff, block = case
    counting._canonical_counts.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "FRONTIER_BLOCK", block)
        tally = counting._canonical_counts(d, cutoff)
    counting._canonical_counts.cache_clear()
    reference = oracles.canonical_counts_dfs(d, cutoff)
    assert tally.dtype == reference.dtype and tally.shape == reference.shape
    assert np.array_equal(tally, reference)


@pytest.mark.parametrize("d, cutoff", [(2, 13), (3, 9), (4, 6)])
def test_counting_holds_no_large_temporary(d, cutoff):
    # the search may hold its tally and about 1 MB of blocks, children and
    # keys: at d = 2, L = 13 (a 0.24 MB tally) blocks of 2^13 walks or a
    # 2^16-key buffer exceed that, and at d = 4, L = 6 (a 4.8 MB tally) so
    # does a tally-sized temporary per flush, such as np.bincount's; d = 3,
    # L = 9 (a 1.65 MB tally) has 6 candidate sites per parent
    counting._canonical_counts.cache_clear()
    tracemalloc.start()
    try:
        tally = counting._canonical_counts(d, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tally.nbytes + 1.0e6


def test_walks_and_bridges_share_one_search(searched_roots):
    # one search starts once from each canonical root
    # (0, e1, ..., k e1, k e1 + e2), k = 1..cutoff-1
    counting.enumerate_counts(2, 7, WalkClass.ALL)
    assert len(searched_roots) == len(set(searched_roots)) == 6
    counting.enumerate_counts(2, 7, WalkClass.BRIDGE)
    counting.enumerate_counts(2, 7, WalkClass.IRREDUCIBLE_BRIDGE)
    assert len(searched_roots) == 6


def test_validation_and_budget_errors():
    with pytest.raises(
        ValueError, match="^cutoff 26 exceeds 24, the largest enumerated at d = 2$"
    ):
        counting.enumerate_counts(2, 26, WalkClass.ALL)
    with pytest.raises(ValueError):
        counting.enumerate_counts(5, 4, WalkClass.ALL)
    with pytest.raises(ValueError):
        counting.enumerate_counts(2, -1, WalkClass.ALL)


@pytest.mark.parametrize("d", counting.SUPPORTED_DIMENSIONS)
def test_each_dimension_refuses_the_cutoff_past_its_cap(d, searched_roots):
    cap = counting.MAX_CUTOFF[d]
    message = f"^cutoff {cap + 1} exceeds {cap}, the largest enumerated at d = {d}$"
    with pytest.raises(ValueError, match=message):
        counting.enumerate_counts(d, cap + 1, WalkClass.ALL)
    assert searched_roots == []
    # the caps are the cutoffs whose full walk tree, a geometric sum over
    # overestimated growth rates, stays within 5e10 nodes
    growth = {2: 2.7, 3: 4.8, 4: 6.9}[d]
    nodes = [sum(growth**k for k in range(cutoff + 1)) for cutoff in (cap, cap + 1)]
    assert nodes[0] <= 5e10 < nodes[1]
    # levels 0..cutoff fit the search's int32 level mask
    assert cap + 1 <= 30


def test_cache_roundtrip(tmp_path):
    table = counting.enumerate_counts(2, 6, WalkClass.IRREDUCIBLE_BRIDGE)
    path = tmp_path / "irr.bin"
    counting.save_count_table(table, path, config={"d": 2, "L": 6})
    loaded = counting.load_count_table(path)
    assert loaded.d == table.d
    assert loaded.cutoff == table.cutoff
    assert loaded.walk_class is table.walk_class
    assert list(loaded.counts) == list(table.counts)
    for site in table.counts:
        assert np.array_equal(loaded.counts[site], table.counts[site])

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"bad\.bin: integrity digest mismatch$"):
        counting.load_count_table(bad)
    with pytest.raises(ValueError, match=r"empty\.bin: truncated count cache$"):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"nonsense")
        counting.load_count_table(empty)


def test_cache_endpoint_order_is_checked_at_a_large_cutoff(tmp_path):
    # the reader compares endpoints one coordinate at a time, here at the
    # largest cutoff a d = 4 cache may have
    cutoff = counting.MAX_CUTOFF[4]
    sites = np.array([[-cutoff, 0, 0, 0], [0, 0, 0, cutoff]])
    rows = np.zeros((2, cutoff + 1), dtype=np.int64)
    rows[:, cutoff] = 1
    path = tmp_path / "wide.bin"
    counting.save_count_table(counting.CountTable(4, cutoff, WalkClass.ALL, sites, rows), path)
    valid = path.read_bytes()
    loaded = counting.load_count_table(path)
    assert np.array_equal(loaded.sites, sites) and np.array_equal(loaded.rows, rows)
    swapped = counting.CountTable(4, cutoff, WalkClass.ALL, sites[::-1].copy(), rows)
    counting.save_count_table(swapped, path)
    with pytest.raises(ValueError, match=r"\(-12, 0, 0, 0\) is out of increasing order$"):
        counting.load_count_table(path)
    # a wider cutoff, here 40000, is refused by the writer, which leaves the
    # file as it was, and by the reader from the header alone
    wide = 40_000
    rows = np.zeros((2, wide + 1), dtype=np.int64)
    rows[:, wide] = 1
    sites = np.array([[-wide, 0, 0, 0], [0, 0, 0, wide]])
    refusal = r"wide\.bin: cutoff 40000 exceeds 12 at d = 4$"
    before = path.read_bytes()
    with pytest.raises(ValueError, match=refusal):
        counting.save_count_table(counting.CountTable(4, wide, WalkClass.ALL, sites, rows), path)
    assert path.read_bytes() == before
    # the valid cache with its header cutoff and its records rewritten at
    # the wider cutoff, and its digest recomputed
    body = bytearray(valid[:-32])
    body[16:20] = wide.to_bytes(4, "little")
    records = 25 + int.from_bytes(body[21:25], "little") + 8
    body[records:] = b"".join(
        np.asarray(site, "<i4").tobytes() + np.asarray(row, "<i8").tobytes()
        for site, row in zip(sites, rows)
    )
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    with pytest.raises(ValueError, match=refusal):
        counting.load_count_table(path)


# the case ids are the ones these digests have long been recorded under:
# "1-6" runs the default block, "2-3" a block of 3 walks that splits
# every level of the frontier
@pytest.mark.parametrize(
    "block",
    [
        pytest.param(counting.FRONTIER_BLOCK, id="1-6"),
        pytest.param(3, id="2-3"),
    ],
)
@pytest.mark.parametrize("d,cutoff,walk_class", list(GOLDEN_CACHE_SHA256))
def test_cache_bytes_match_golden_digest(
    monkeypatch, tmp_path, d, cutoff, walk_class, block
):
    monkeypatch.setattr(counting, "FRONTIER_BLOCK", block)
    counting._canonical_counts.cache_clear()
    table = counting.enumerate_counts(d, cutoff, walk_class)
    path = tmp_path / "table.bin"
    counting.save_count_table(table, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CACHE_SHA256[(d, cutoff, walk_class)]


def test_cache_rewrite_is_byte_identical(tmp_path):
    table = counting.enumerate_counts(2, 5, WalkClass.BRIDGE)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    counting.save_count_table(table, a, config={"seed": 0})
    counting.save_count_table(table, b, config={"seed": 0})
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "d,n,max_steps",
    [
        (2, 1, 1),
        (2, 2, 6),
        (2, 3, 7),
        (3, 2, 4),
        # budget and target of opposite parity: the last step is unusable
        (2, 1, 2),
        (2, 2, 5),
        (2, 3, 8),
        (3, 2, 5),
    ],
)
def test_bridge_enumeration_to_axis_point_matches_oracle(d, n, max_steps):
    ours = oracles.paths_of(counting.bridges_to_axis_point(d, n, max_steps))
    theirs = set(oracles.naive_bridges_to(d, n, max_steps))
    assert len(ours) == len(theirs)
    assert set(ours) == theirs


@given(
    st.sampled_from([(2, 5, 6), (3, 3, 4), (4, 2, 4)]).flatmap(
        lambda dims: st.tuples(
            st.just(dims[0]),
            st.integers(1, dims[1]),
            st.integers(0, dims[2]),
        )
    )
)
def test_array_search_repeats_the_recursive_search(case):
    # spans and budgets of both parities; an odd budget surplus is unusable
    d, n, surplus = case
    stacks = list(counting.bridges_to_axis_point(d, n, n + surplus))
    paths = oracles.paths_of(stacks)
    reference = list(oracles.iter_bridges_to_axis_point(d, n, n + surplus))
    assert Counter(paths) == Counter(reference)
    # each walk's array skeleton is its skeleton
    for stack in stacks:
        for rows, knots in counting.knot_stacks(stack):
            for row, increments in zip(rows, np.diff(knots, axis=1).tolist()):
                path = tuple(map(tuple, stack[row].tolist()))
                assert tuple(map(tuple, increments)) == oracles.naive_skeleton(path)


@pytest.mark.parametrize("d, n, max_steps", [(2, 5, 11), (3, 3, 7), (4, 2, 6)])
def test_array_search_in_small_blocks_finds_the_same_bridges(
    monkeypatch, d, n, max_steps
):
    # levels wider than a block are extended block by block, depth first
    monkeypatch.setattr(counting, "FRONTIER_BLOCK", 3)
    paths = oracles.paths_of(counting.bridges_to_axis_point(d, n, max_steps))
    reference = oracles.iter_bridges_to_axis_point(d, n, max_steps)
    assert Counter(paths) == Counter(reference)


def test_bridge_search_checks_its_arguments_when_called(monkeypatch):
    # the search is lazy; its argument errors are not, and none starts it
    stacks = counting.bridges_to_axis_point(2, 5, 13)
    assert inspect.getgeneratorstate(stacks) == inspect.GEN_CREATED

    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(counting, "_bridge_stacks", no_search)
    with pytest.raises(ValueError, match="n <= 5 at d = 3"):
        counting.bridges_to_axis_point(3, 6, 14)
    with pytest.raises(ValueError, match="axis distance"):
        counting.bridges_to_axis_point(2, 0, 4)
    with pytest.raises(
        ValueError, match=r"^no bridge reaches \(5, 0\) within 4 steps; need cutoff >= 5$"
    ):
        counting.bridges_to_axis_point(2, 5, 4)


@pytest.mark.parametrize(
    "d, n", [(d, n) for d, cap in counting.EXHAUSTIVE_SPAN_CAP.items() for n in range(1, cap + 1)]
)
def test_bridge_search_finds_the_straight_walk_at_the_least_budget(d, n):
    # so max_steps >= n, the rule the search refuses by, is exact
    (stack,) = counting.bridges_to_axis_point(d, n, n)
    straight = np.zeros((1, n + 1, d), dtype=stack.dtype)
    straight[0, :, 0] = np.arange(n + 1)
    assert np.array_equal(stack, straight)


@lru_cache(maxsize=None)
def irreducible_table(d: int, cutoff: int) -> counting.CountTable:
    return counting.enumerate_counts(d, cutoff, WalkClass.IRREDUCIBLE_BRIDGE)


@given(
    st.sampled_from([(2, 13), (3, 9), (4, 7)]).flatmap(
        lambda dims: st.integers(1, counting.EXHAUSTIVE_SPAN_CAP[dims[0]]).flatmap(
            lambda n: st.tuples(
                st.just(dims[0]),
                st.just(n),
                st.integers(n, max(n, dims[1])),
                st.sampled_from([0.9, 1.2, 2.0]),
            )
        )
    )
)
def test_exact_law_equals_the_product_law(case):
    # a bridge splits at its regeneration sites into irreducible legs, one
    # to one, so both laws weight the same count rows: equal bit for bit
    d, n, cutoff, beta = case
    exact = counting.exact_conditioned_skeleton_law(d, n, beta, cutoff)
    product = renewal.product_skeleton_law(irreducible_table(d, cutoff), beta, n)
    assert list(exact.items()) == list(product.items())


@lru_cache(maxsize=None)
def reference_rows(d: int, cutoff: int, n: int) -> dict:
    return oracles.product_law_reference(irreducible_table(d, cutoff).counts, cutoff, n)


@pytest.mark.parametrize("beta", [0.9, 2.0])
@pytest.mark.parametrize("d, cutoff, n", [(2, 13, 5), (2, 13, 6), (3, 9, 5), (4, 8, 4)])
def test_product_law_equals_the_recursive_reference(d, cutoff, n, beta):
    # the array search and the recursion find the same step sequences and
    # convolve the same exact integer rows: weighted alike, equal bit for bit
    law = renewal.product_skeleton_law(irreducible_table(d, cutoff), beta, n)
    weights = counting.length_weights(cutoff, beta)
    reference = counting.length_law(reference_rows(d, cutoff, n), weights)
    assert list(law.items()) == list(reference.items())


def test_product_law_peak_memory():
    # blocks of at most BLOCK_CELLS (sequence, step) pairs: 704 steps at
    # (4, 8, 4), so 372 sequences a block; the search peaked at 13.9 MB
    # here, bounded with a 30 % margin (the recursion peaked at 0.44 MB, the
    # search without a block bound at 21.3 MB)
    irr = irreducible_table(4, 8)
    tracemalloc.start()
    try:
        renewal.product_skeleton_law(irr, 1.2, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 18e6


@pytest.mark.parametrize("d, n, cutoff", [(2, 5, 9), (2, 5, 10), (3, 3, 7)])
def test_exact_law_equals_the_ordered_reference(d, n, cutoff):
    # the recursive search's bridges, counted by skeleton and length, are
    # the array search's count rows: weighted alike, equal bit for bit
    law = counting.exact_conditioned_skeleton_law(d, n, 1.2, cutoff)
    rows = oracles.skeleton_count_rows(d, n, cutoff)
    reference = counting.length_law(rows, counting.length_weights(cutoff, 1.2))
    assert list(law.items()) == list(reference.items())


def test_exact_law_peak_memory():
    # (2, 5, 13) is the short-span oracle's law; the recursive search that
    # built one skeleton per walk peaked at 1.2-1.5 MB here, by how warm
    # the process was
    counting.exact_conditioned_skeleton_law(2, 5, 1.2, 13)
    tracemalloc.start()
    try:
        counting.exact_conditioned_skeleton_law(2, 5, 1.2, 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_exact_law_does_not_hold_every_bridge():
    # the 49837 bridges to (4, 0, 0, 0) within 10 steps, held all at once as
    # one site array per length, peaked at 13.2 MB here; counted a stack at
    # a time as the search yields them, 5.3 MB
    tracemalloc.start()
    try:
        counting.exact_conditioned_skeleton_law(4, 4, 1.2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


def test_exact_law_ignores_unusable_parity_step():
    odd = counting.exact_conditioned_skeleton_law(2, 5, 1.2, 9)
    even = counting.exact_conditioned_skeleton_law(2, 5, 1.2, 10)
    assert even == odd


def test_exact_law_point_mass_at_n1():
    law = counting.exact_conditioned_skeleton_law(2, 1, 1.2, 1)
    assert law == {(1, 0): 1.0}


@pytest.mark.parametrize("n,cutoff", [(2, 8), (3, 9)])
def test_exact_law_matches_naive_oracle(n, cutoff):
    law = counting.exact_conditioned_skeleton_law(2, n, 1.2, cutoff)
    naive = oracles.naive_skeleton_law(2, n, 1.2, cutoff)
    converted = {tuple(c for s in sk for c in s): p for sk, p in naive.items()}
    assert set(law) == set(converted)
    for sk, p in converted.items():
        assert law[sk] == pytest.approx(p, rel=1e-13, abs=1e-15)
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_law_reversal_symmetry():
    law = counting.exact_conditioned_skeleton_law(2, 4, 1.2, 10)
    for sk, p in law.items():
        # at d = 2 a flat key alternates t and y
        steps = list(zip(sk[::2], sk[1::2]))
        mirrored = oracles.flat_key((t, (-y,)) for t, y in reversed(steps))
        assert law[mirrored] == pytest.approx(p, rel=1e-13)


def test_exact_law_requires_reachable_endpoint():
    with pytest.raises(
        ValueError, match=r"^no bridge reaches \(3, 0\) within 2 steps; need cutoff >= 3$"
    ):
        counting.exact_conditioned_skeleton_law(2, 3, 1.2, 2)


@pytest.mark.parametrize("d, n, cutoff", [(3, 3, 9), (4, 3, 7)])
def test_flat_keys_sort_as_their_increment_sequences(d, n, cutoff):
    # every increment spans d entries and no key is a prefix of another
    # (every key's t sum to n), so the flat keys sort as (t, y) sequences
    exact = counting.exact_conditioned_skeleton_law(d, n, 1.2, cutoff)
    product = renewal.product_skeleton_law(irreducible_table(d, cutoff), 1.2, n)

    def increments(key):
        return tuple((key[i], key[i + 1 : i + d]) for i in range(0, len(key), d))

    for law in (exact, product):
        assert list(law) == sorted(law) == sorted(law, key=increments)


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_length_weights_refuse_a_beta_that_is_not_positive_and_finite(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        counting.length_weights(6, beta)


def test_weights_and_skeleton_laws_refuse_an_infinite_beta():
    # at beta = inf the weight of length 0 would be -inf * 0, a NaN
    irr = irreducible_table(2, 9)
    walks = counting.enumerate_counts(2, 9, WalkClass.ALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: counting.exact_conditioned_skeleton_law(2, 3, math.inf, 9),
            lambda: renewal.product_skeleton_law(irr, math.inf, 3),
            lambda: counting.mass_estimate(walks, math.inf, 3),
        ):
            with pytest.raises(ValueError, match="positive and finite, got inf"):
                call()
