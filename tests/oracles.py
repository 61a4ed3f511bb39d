"""Independent reference implementations used to validate the package.

Everything here is written for clarity, not speed: plain tuples, linear
scans, dictionary recursions.  None of it shares code with the package
modules, with two exceptions: exact_gap_fraction reuses the package's
partition DP, which the tests check against composition_partition, and
is itself checked against renewal_conditioned_law; batch_of only packs
test skeletons into the package's SkeletonBatch, and paths_of only
unpacks the package's array search into tuples.  Agreement between
the two sides is the point of the tests.  per_step_slabs is the one
numpy reference: the partition DP as one update per law step, whose
floating-point operations the package's block sum must repeat bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Sequence

import numpy as np

Site = tuple[int, ...]
Path = tuple[Site, ...]


def _neighbours(site: Site) -> list[Site]:
    out = []
    for axis in range(len(site)):
        for sign in (1, -1):
            s = list(site)
            s[axis] += sign
            out.append(tuple(s))
    return out


def iter_saws(d: int, max_steps: int) -> Iterator[Path]:
    """Yield every self-avoiding walk from the origin with <= max_steps steps.

    Membership is checked by linear scan over the path prefix.
    """

    def rec(path: list[Site]) -> Iterator[Path]:
        yield tuple(path)
        if len(path) - 1 == max_steps:
            return
        for nxt in _neighbours(path[-1]):
            if nxt not in path:
                path.append(nxt)
                yield from rec(path)
                path.pop()

    yield from rec([(0,) * d])


def naive_is_bridge(path: Sequence[Site]) -> bool:
    """Direct transcription of the bridge condition on axis 0."""
    first = path[0][0]
    last = path[-1][0]
    return all(first < s[0] <= last for s in path[1:])


def naive_break_points(path: Sequence[Site]) -> list[int]:
    """Break points of a bridge, by the raw two-sided definition.

    Level k (strictly between the endpoint levels) is a break point iff
    some split index r has the whole prefix at level <= k and the whole
    suffix strictly above.
    """
    levels = [s[0] for s in path]
    first, last = levels[0], levels[-1]
    out = []
    for k in range(first + 1, last):
        for r in range(len(path)):
            if all(l <= k for l in levels[: r + 1]) and all(l > k for l in levels[r + 1 :]):
                out.append(k)
                break
    return out


def naive_counts(d: int, max_steps: int, kind: str) -> dict[Site, list[int]]:
    """Exact counts by endpoint and step number, by brute enumeration.

    kind is one of "all", "bridge", "irreducible".
    """
    counts: dict[Site, list[int]] = {}
    for path in iter_saws(d, max_steps):
        if kind in ("bridge", "irreducible"):
            if not naive_is_bridge(path):
                continue
            if kind == "irreducible" and naive_break_points(path):
                continue
        end = path[-1]
        row = counts.setdefault(end, [0] * (max_steps + 1))
        row[len(path) - 1] += 1
    return counts


def naive_totals(d: int, max_steps: int) -> list[int]:
    counts = naive_counts(d, max_steps, "all")
    totals = [0] * (max_steps + 1)
    for row in counts.values():
        for n, c in enumerate(row):
            totals[n] += c
    return totals


def naive_bridges_to(d: int, n: int, max_steps: int) -> list[Path]:
    """All bridges from the origin to (n, 0, ..., 0) with <= max_steps steps."""
    target = (n,) + (0,) * (d - 1)
    return [
        p
        for p in iter_saws(d, max_steps)
        if p[-1] == target and len(p) > 1 and naive_is_bridge(p)
    ]


def iter_bridges_to_axis_point(
    d: int, n: int, max_steps: int
) -> Iterator[Path]:
    """Every bridge from the origin to (n, 0, ..., 0) with <= max_steps
    steps, by recursive depth-first search over the unit steps in the
    package's order (axis ascending, + before -): the ordered reference
    for the package's array search.

    The search stays inside the slab 1 <= x_1 <= n and prunes branches
    whose lattice distance to the target exceeds the remaining budget.
    """
    target = (n,) + (0,) * (d - 1)
    path: list[Site] = [(0,) * d]
    visited = {path[0]}

    def rec() -> Iterator[Path]:
        cur = path[-1]
        if cur == target:
            # no bridge revisits its endpoint, so recursion stops here
            yield tuple(path)
            return
        remaining = max_steps - (len(path) - 1)
        if remaining == 0:
            return
        for nxt in _neighbours(cur):
            x0 = nxt[0]
            if x0 < 1 or x0 > n or nxt in visited:
                continue
            dist = (n - x0) + sum(abs(c) for c in nxt[1:])
            if dist > remaining - 1:
                continue
            visited.add(nxt)
            path.append(nxt)
            yield from rec()
            path.pop()
            visited.remove(nxt)

    yield from rec()


def canonical_counts_dfs(d: int, cutoff: int) -> np.ndarray:
    """The canonical-walk tally by recursive depth-first search: the
    reference for the package's array frontier.

    Sites are mixed-radix codes over the box |x_i| <= cutoff, axis 0 least
    significant.  The walks are searched from the roots (0, e1, ..., k e1,
    k e1 + e2), k = 1..cutoff - 1, and row `code` of the (base^d,
    3(cutoff + 1)) result counts the walks ending there by length in three
    parts: every walk, the bridges, and the irreducible bridges.  A walk
    is a bridge iff its level x0 equals the running maximum `top`; once
    the walk steps below level 1, `top` is cutoff + 1, which no level
    reaches.  A bridge is irreducible iff `naive_break_points` finds no
    break in its decoded path.
    """
    base = 2 * cutoff + 1
    width = cutoff + 1
    never = cutoff + 1
    moves = []
    for axis in range(d):
        for sign in (1, -1):
            moves.append((sign * base**axis, sign if axis == 0 else 0))
    counts = np.zeros((base**d, 3 * width), dtype=np.int64)

    def site(code: int) -> Site:
        return tuple(code // base**i % base - cutoff for i in range(d))

    def rec(pos: int, x0: int, top: int, depth: int) -> None:
        counts[pos, depth] += 1
        if x0 == top:
            counts[pos, width + depth] += 1
            if not naive_break_points([site(code) for code in path]):
                counts[pos, 2 * width + depth] += 1
        if depth == cutoff:
            return
        for off, rise in moves:
            nxt = pos + off
            if nxt in visited:
                continue
            nx0 = x0 + rise
            visited.add(nxt)
            path.append(nxt)
            rec(nxt, nx0, never if nx0 < 1 else max(nx0, top), depth + 1)
            path.pop()
            visited.remove(nxt)

    origin = sum(cutoff * base**i for i in range(d))
    for k in range(1, cutoff):
        path = [origin + j for j in range(k + 1)] + [origin + k + base]
        visited = set(path)
        # the root's sites after the origin lie at levels 1..k: a bridge
        rec(path[-1], k, k, k + 1)
    return counts


def paths_of(stacks) -> list[Path]:
    """The walks of an array search (stacks of same-length site arrays) as
    tuples of sites, stack by stack."""
    return [tuple(map(tuple, walk)) for stack in stacks for walk in stack.tolist()]


def naive_skeleton(path: Sequence[Site]) -> tuple[Site, ...]:
    """Increment sequence between consecutive regeneration points of a bridge.

    The regeneration point for break level b is the last visit to level b.
    """
    breaks = naive_break_points(path)
    marks = [path[0]]
    levels = [s[0] for s in path]
    for b in breaks:
        idx = max(i for i, l in enumerate(levels) if l == b)
        marks.append(path[idx])
    marks.append(path[-1])
    return tuple(
        tuple(q - p for p, q in zip(a, b)) for a, b in zip(marks, marks[1:])
    )


def skeleton_count_rows(
    d: int, n: int, max_steps: int
) -> dict[tuple[tuple[int, tuple[int, ...]], ...], np.ndarray]:
    """The bridges of the recursive search counted by skeleton and length:
    one integer row per skeleton, keyed by (t, y) increment pairs, with
    row[N] the number of N-step bridges to (n, 0) having that skeleton."""
    rows: dict = {}
    for path in iter_bridges_to_axis_point(d, n, max_steps):
        sk = tuple((s[0], tuple(s[1:])) for s in naive_skeleton(path))
        row = rows.setdefault(sk, np.zeros(max_steps + 1, dtype=np.int64))
        row[len(path) - 1] += 1
    return rows


def product_law_reference(
    counts: dict[Site, np.ndarray], cutoff: int, n: int
) -> dict[tuple[tuple[int, tuple[int, ...]], ...], np.ndarray]:
    """The renewal product formula's count rows, by a prefix-shared
    recursion over step sequences: one integer row per skeleton to (n, 0),
    keyed by (t, y) increment pairs, with row[N] the number of ways to pick
    one irreducible bridge per leg with N steps in all (N <= cutoff).

    `counts` is an irreducible table's endpoint rows.  A branch is cut when
    its legs' shortest lengths plus the cheapest completion (the rest of
    the axis, then the transverse offset back to zero) exceed the cutoff.
    """
    width = cutoff + 1
    steps = []
    for site, row in counts.items():
        nz = np.flatnonzero(row)
        if 1 <= site[0] <= n and nz.size:
            steps.append(((site[0], tuple(site[1:])), row, int(nz[0])))

    rows: dict = {}
    path: list[tuple[int, tuple[int, ...]]] = []

    def rec(t_acc: int, y_acc: tuple[int, ...], min_used: int, poly: np.ndarray) -> None:
        if t_acc == n:
            if all(c == 0 for c in y_acc):
                rows[tuple(path)] = poly
            return
        for step, row, min_len in steps:
            if t_acc + step[0] > n:
                continue
            ny = tuple(a + b for a, b in zip(y_acc, step[1]))
            rest = (n - t_acc - step[0]) + sum(abs(c) for c in ny)
            if min_used + min_len + rest > cutoff:
                continue
            path.append(step)
            rec(t_acc + step[0], ny, min_used + min_len, np.convolve(poly, row)[:width])
            path.pop()

    start = np.zeros(width, dtype=np.int64)
    start[0] = 1
    d = len(next(iter(counts)))
    rec(0, (0,) * (d - 1), 0, start)
    return rows


def naive_skeleton_law(
    d: int, n: int, beta: float, max_steps: int
) -> dict[tuple[Site, ...], float]:
    """Skeleton distribution of the length-weighted bridge ensemble to (n, 0)."""
    weights: dict[tuple[Site, ...], float] = {}
    for path in naive_bridges_to(d, n, max_steps):
        sk = naive_skeleton(path)
        weights[sk] = weights.get(sk, 0.0) + math.exp(-beta * (len(path) - 1))
    total = sum(weights.values())
    return {sk: w / total for sk, w in weights.items()}


def composition_partition(
    steps: Sequence[tuple[int, tuple[int, ...], float]],
    n: int,
    radius: int,
) -> dict[tuple[int, tuple[int, ...]], float]:
    """Mass of step compositions reaching each (t, y) with |y|_inf <= radius.

    steps is a list of (t, y, p) triples.  Plain dictionary recursion over
    t, no array tricks, so it serves as an oracle for the slab dynamic
    program at moderate n.
    """
    table: dict[tuple[int, tuple[int, ...]], float] = {
        (0, (0,) * len(steps[0][1])): 1.0
    }
    for t in range(1, n + 1):
        # accumulate arrivals at epoch t from every earlier epoch
        for st, sy, sp in steps:
            src_t = t - st
            if src_t < 0:
                continue
            for (pt, py), mass in list(table.items()):
                if pt != src_t:
                    continue
                ny = tuple(a + b for a, b in zip(py, sy))
                if any(abs(c) > radius for c in ny):
                    continue
                key = (t, ny)
                table[key] = table.get(key, 0.0) + mass * sp
    return table


def per_step_slabs(
    t_arr: np.ndarray,
    y_arr: np.ndarray,
    p_arr: np.ndarray,
    n: int,
    radius: int,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    """In-box mantissas and log scales of the slab DP, one numpy update per
    law step: slab t adds exp(log_scale[t - t_i] - anchor) * p_i times the
    window of slab t - t_i, for the live lags only, in law order, then
    scales to unit maximum."""
    d = y_arr.shape[1] + 1
    width = 2 * radius + 1
    padded = np.zeros((n + 1, *(width + 2 * reach,) * (d - 1)), dtype=np.float64)
    box = (slice(reach, reach + width),) * (d - 1)
    log_scale = np.full(n + 1, -np.inf)
    padded[0][(reach + radius,) * (d - 1)] = 1.0
    log_scale[0] = 0.0
    windows = [tuple(slice(reach - c, reach - c + width) for c in y) for y in y_arr.tolist()]

    for t in range(1, n + 1):
        steps = [
            (i, t - tj)
            for i, tj in enumerate(t_arr.tolist())
            if tj <= t and log_scale[t - tj] > -np.inf
        ]
        if not steps:
            continue
        anchor = max(log_scale[s] for _, s in steps)
        slab = padded[t][box]
        for i, s in steps:
            slab += math.exp(log_scale[s] - anchor) * p_arr[i] * padded[s][windows[i]]
        peak = float(slab.max())
        if peak > 0.0:
            slab /= peak
            log_scale[t] = anchor + math.log(peak)
    return padded[(slice(None), *box)], log_scale


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def classic_ks_statistic(sample: Sequence[float]) -> float:
    """Classic one-sample Kolmogorov-Smirnov distance to the standard normal.

    The sup over the line of |empirical CDF - normal CDF|, read off on
    both sides of every jump of the empirical CDF.
    """
    ordered = sorted(float(x) for x in sample)
    size = len(ordered)
    worst = 0.0
    for i, x in enumerate(ordered):
        cdf = normal_cdf(x)
        worst = max(worst, (i + 1) / size - cdf, cdf - i / size)
    return worst


def brownian_bridge_covariance(times: Sequence[float], sigma2: float) -> list[list[float]]:
    """Covariance matrix sigma^2 * min(s,t) * (1 - max(s,t)) on a time grid."""
    return [
        [sigma2 * min(s, t) * (1.0 - max(s, t)) for t in times] for s in times
    ]


def walk_strategy(d: int, max_steps: int = 12):
    """Hypothesis strategy for self-avoiding walks built from step indices,
    truncated at the first collision."""
    from hypothesis import strategies as st

    def build(indices: list[int]) -> Path:
        path = [(0,) * d]
        seen = {path[0]}
        for i in indices:
            nxt = _neighbours(path[-1])[i]
            if nxt in seen:
                break
            seen.add(nxt)
            path.append(nxt)
        return tuple(path)

    return st.lists(st.integers(0, 2 * d - 1), min_size=0, max_size=max_steps).map(
        build
    )


def renewal_conditioned_law(
    steps: Sequence[tuple[int, tuple[int, ...], float]],
    n: int,
    min_prob: float = 0.0,
) -> dict[tuple[tuple[int, tuple[int, ...]], ...], float]:
    """Exact law of a pinned renewal chain, by direct composition search.

    Enumerates step sequences whose spans sum to n and whose transverse
    parts cancel, and assigns each the normalized product of step masses.
    The normalizer comes from composition_partition, which never prunes.
    min_prob > 0 keeps only sequences at or above that final probability;
    the pruning is exact because step masses never exceed one, so a
    partial product already below the floor cannot recover.
    """
    if not steps:
        raise ValueError("empty step list")
    if any(p > 1.0 for _, _, p in steps):
        raise ValueError("step masses above one break the pruning bound")
    dim = len(steps[0][1])
    reach = max(max((abs(c) for c in y), default=0) for _, y, _ in steps)
    total = composition_partition(steps, n, max(n * reach, 1)).get(
        (n, (0,) * dim), 0.0
    )
    if total <= 0.0:
        return {}
    floor = min_prob * total
    law: dict[tuple[tuple[int, tuple[int, ...]], ...], float] = {}
    ordered = sorted(steps)

    def descend(t_used: int, y: tuple[int, ...], prefix, product: float) -> None:
        if t_used == n:
            p = product / total
            if all(c == 0 for c in y) and p >= min_prob:
                law[tuple(prefix)] = p
            return
        for t, dy, q in ordered:
            if t_used + t > n:
                continue
            extended = product * q
            if extended < floor:
                continue
            prefix.append((t, dy))
            descend(t_used + t, tuple(a + b for a, b in zip(y, dy)), prefix, extended)
            prefix.pop()

    descend(0, (0,) * dim, [], 1.0)
    return law


def convolve_counts(a: Sequence[int], b: Sequence[int], width: int) -> list[int]:
    """Length-truncated integer convolution of two count rows."""
    out = [0] * width
    for i, left in enumerate(a):
        if not left or i >= width:
            continue
        for j, right in enumerate(b[: width - i]):
            if right:
                out[i + j] += left * right
    return out


def oz_residual(
    bridge: dict[Site, Sequence[int]],
    irr: dict[Site, Sequence[int]],
    width: int,
) -> int:
    """Max abs deviation of the first-break-point renewal identity.

    For every bridge endpoint v with v_1 >= 1, the per-length bridge
    counts must equal the sum over irreducible first legs u of the
    convolution of the irreducible counts at u with the bridge counts at
    v - u.  Exact integer arithmetic throughout.
    """
    worst = 0
    for v, lhs in bridge.items():
        if v[0] < 1:
            continue
        rhs = [0] * width
        for u, u_row in irr.items():
            if not 1 <= u[0] <= v[0]:
                continue
            tail = bridge.get(tuple(a - b for a, b in zip(v, u)))
            if tail is None:
                continue
            for k, value in enumerate(convolve_counts(u_row, tail, width)):
                rhs[k] += value
        worst = max(worst, max(abs(l - r) for l, r in zip(lhs, rhs)))
    return worst


def scaled_knots(skeleton) -> tuple[list[float], list[list[float]]]:
    """Knot times s_t / n and values s_y / sqrt(n) of a skeleton's partial
    sums s, starting from (0, 0~), by a running sum over its increments."""
    n = skeleton.n
    position = [0] * (1 + len(skeleton.increments[0].y))
    times, values = [0.0], [[0.0] * (len(position) - 1)]
    for step in skeleton.increments:
        position = [p + c for p, c in zip(position, (step.t, *step.y))]
        times.append(position[0] / n)
        values.append([c / math.sqrt(n) for c in position[1:]])
    return times, values


def interpolate_process(skeleton, t: float) -> list[float]:
    """Value of a skeleton's scaled process at one time, one np.interp per
    transverse coordinate."""
    import numpy as np

    times, values = scaled_knots(skeleton)
    return [
        float(np.interp(t, times, [row[j] for row in values]))
        for j in range(len(values[0]))
    ]


def batch_of(*skeletons):
    """A SkeletonBatch holding the given walk-level skeletons of one span."""
    import numpy as np
    from sawbridge.sampler import SkeletonBatch

    steps = [(s.t, *s.y) for skeleton in skeletons for s in skeleton.increments]
    return SkeletonBatch(
        n=skeletons[0].n,
        steps=np.array(steps, dtype=np.int64),
        offsets=np.cumsum([0, *(len(s.increments) for s in skeletons)]),
    )


def longer_than_cube_root(t: int, y: Sequence[int], n: int) -> bool:
    """|(t, y)| > n^(1/3), decided exactly in integers as |(t, y)|^6 > n^2."""
    return (t * t + sum(c * c for c in y)) ** 3 > n * n


def exact_gap_fraction(law, n: int, radius: int) -> float:
    """Exact probability that the pinned chain has an increment longer
    than n^(1/3).

    The chain avoids every such increment exactly when all its steps come
    from the law restricted to the shorter ones, so the fraction is
    1 - G_restricted(n, 0~) / G(n, 0~).  Both partition functions come
    from sampler.dp_partition at the one given box radius, which is what
    makes the value comparable with skeletons sampled in that box.
    """
    from sawbridge import sampler

    short = {
        s: p for s, p in law.probs.items() if not longer_than_cube_root(s.t, s.y, n)
    }
    origin = (0,) * (law.d - 1)
    full = sampler.dp_partition(law, n, radius).value(n, origin)
    kept = sampler.dp_partition(
        dataclasses.replace(law, probs=short), n, radius
    ).value(n, origin)
    return 1.0 - kept / full
