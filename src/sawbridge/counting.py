"""Exact enumeration of self-avoiding walks, bridges, and irreducible bridges.

Counts are resolved by endpoint and by number of steps, and kept as exact
integers; inverse temperature enters only when a table is evaluated into a
two-point weight.  That keeps every structural identity (class domination,
the renewal convolution of bridge counts, skeleton laws) checkable with
zero tolerance.

Three walk classes are tabulated:

* ALL: every self-avoiding walk from the origin.
* BRIDGE: the first coordinate of every site after the start is >= 1 and
  the final first coordinate is the running maximum.
* IRREDUCIBLE_BRIDGE: a bridge none of whose interior levels k splits it
  into "everything <= k, then everything > k".

All three are counted by one search over the walks: a bridge is a walk
that stays at level >= 1 and ends at its running maximum, and level k is
a break of a bridge iff no step goes down from k + 1 to k (the rule of
`regeneration_knots`).  So each walk is tallied as a walk and, when it is
one, as a bridge and as an irreducible bridge.

Signed axis permutations map walks onto walks, so the search visits only
canonical walks: first step +e1, and first step off the e1 axis (the
"first turn") +e2.  They are the subtrees rooted at the prefixes
(0, e1, ..., k e1, k e1 + e2) for k = 1..cutoff-1; the straight walks are
counted apart.  One signed permutation per (first step, first turn) pair
sends e1 to the first step, e2 to the first turn and the other axes to
the remaining axes in order with sign +1; each such orbit map carries the
canonical walks one-to-one onto the walks with that step and turn.
Bridges depend only on e1 levels, so they use the 2(d-1) maps that fix
e1.

Both walk searches, this one and the exhaustive bridge search of
`bridges_to_axis_point`, are one array frontier over site codes.  A site
is its mixed-radix code over a box |x_i| <= R with axis 0 least
significant, in the smallest integer type that holds them all, so a unit
step adds a fixed offset and the origin is the box's centre.  The partial
walks of one length are the rows of a code array; they are extended in
blocks of FRONTIER_BLOCK walks, depth first, so few blocks are held at
once.  Each parent's 2d candidate sites are compared once with its sites
an even number of steps back, one history column at a time.

Every table passes through one dense int64 grid over the box |x_i| <= L
and the lengths 0..L (L the cutoff), and a code is a site's flat index in
it.  The search adds each walk into a (code, length) tally of three
parts; a class's grid is its part of that tally plus one np.flip and
transpose per orbit map, and `counts` holds its nonzero rows,
endpoint-sorted.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .lattice import Site, unit_steps
from .reporting import write_atomic

SUPPORTED_DIMENSIONS = (2, 3, 4)

# largest cutoff `enumerate_counts` searches, by dimension: the whole walk
# tree up to it has at most about 5e10 nodes
MAX_CUTOFF = {2: 24, 3: 15, 4: 12}
# partial walks a search extends at once (a whole d = 2 bridge level)
FRONTIER_BLOCK = 2**11
# cells one array pass holds at once: the partition DP's slab sum and block
# of law steps' windows, or the product law's (step sequence, step) pairs
BLOCK_CELLS = 2**18
# largest span whose bridges `bridges_to_axis_point` enumerates, by dimension
EXHAUSTIVE_SPAN_CAP = {2: 6, 3: 5, 4: 4}


class WalkClass(Enum):
    ALL = "all"
    BRIDGE = "bridge"
    IRREDUCIBLE_BRIDGE = "irreducible"


class BudgetExceededError(ValueError):
    """The cutoff exceeds MAX_CUTOFF for its dimension."""


class NoBridgesError(ValueError):
    """No bridge to the requested endpoint exists within the cutoff."""


class ZeroWeightError(ValueError):
    """A required endpoint has zero truncated weight (cutoff too small)."""


class CacheFormatError(ValueError):
    """A count cache file is malformed or fails its integrity check."""


@dataclass(frozen=True)
class CountTable:
    """Exact per-endpoint, per-length walk counts up to a step cutoff."""

    d: int
    cutoff: int
    walk_class: WalkClass
    counts: dict[Site, np.ndarray]


def check_dimension(d: int) -> None:
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMENSIONS}, got {d}")


def _unit_codes(d: int, radius: int) -> np.ndarray:
    """Code displacement of each unit step (axis ascending, + before -) on
    the box |x_i| <= radius, in the smallest signed integer type that holds
    every code of the box."""
    base = 2 * radius + 1
    dtype = np.min_scalar_type(-(base**d))
    return np.outer(base ** np.arange(d), (1, -1)).ravel().astype(dtype)


def _children(walks: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, ...]:
    """One-step extensions of same-length walks of site codes onto sites
    they have not visited, parent-major and step-minor: (parent rows, step
    indices, new sites).  A site recurs only an even number of steps back
    (the lattice is bipartite): one compare per parent and history column."""
    sites = walks[:, -1, None] + steps
    free = np.ones(sites.shape, dtype=bool)
    for past in walks[:, walks.shape[1] % 2 :: 2].T:
        free &= past[:, None] != sites
    return *np.nonzero(free), sites[free]


def _grid_counts(grid: np.ndarray) -> dict[Site, np.ndarray]:
    """The read-only rows of a count grid's nonzero endpoints.

    The grid's C order over sites is the endpoint sort order, so the dict
    comes out sorted.
    """
    cutoff = grid.shape[-1] - 1
    nonzero = grid.any(axis=-1)
    rows = grid[nonzero]
    rows.flags.writeable = False
    sites = (np.argwhere(nonzero) - cutoff).tolist()
    return dict(zip(map(tuple, sites), rows))


def _orbit_maps(d: int, walk_class: WalkClass) -> list[tuple[list[int], list[int]]]:
    """Grid maps carrying the canonical walks onto the whole class.

    Map (flips, axes) takes a count grid g to np.flip(g, flips).transpose(axes):
    e1 to a first step, e2 to a first turn, the other axes to the remaining
    axes in order with sign +1.  Bridges always step +e1 first.
    """
    if walk_class is WalkClass.ALL:
        first_steps = [(a, s) for a in range(d) for s in (1, -1)]
    else:
        first_steps = [(0, 1)]
    maps = []
    for a1, s1 in first_steps:
        for a2 in range(d):
            if a2 == a1:
                continue
            # canonical axis i goes to axis dest[i]
            dest = [a1, a2, *(a for a in range(d) if a not in (a1, a2))]
            axes = [*map(dest.index, range(d)), d]
            for s2 in (1, -1):
                flips = [i for i, sign in enumerate((s1, s2)) if sign < 0]
                maps.append((flips, axes))
    return maps


def _rebuild_table(
    d: int, cutoff: int, walk_class: WalkClass, canonical: np.ndarray
) -> dict[Site, np.ndarray]:
    """Endpoint-sorted table of the class from its canonical-walk tally.

    The tally's part for the class (in WalkClass order) fills a grid that
    each orbit map carries onto its walks; the straight walks, which have
    no first turn, are added once each.
    """
    width = cutoff + 1
    lo = list(WalkClass).index(walk_class) * width
    base = 2 * cutoff + 1
    # a code has axis 0 least significant, so the C-order reshape reverses
    # the site axes
    part = canonical[:, lo : lo + width].reshape((base,) * d + (width,))
    part = part.transpose(*range(d - 1, -1, -1), d)
    grid = np.zeros_like(part)
    for flips, axes in _orbit_maps(d, walk_class):
        grid += np.flip(part, flips).transpose(axes)

    grid[(cutoff,) * d + (0,)] += 1
    # +e1 is the only direction whose straight walks are bridges, and the
    # one step +e1 the only irreducible one
    steps = unit_steps(d) if walk_class is WalkClass.ALL else unit_steps(d)[:1]
    longest = min(1, cutoff) if walk_class is WalkClass.IRREDUCIBLE_BRIDGE else cutoff
    lengths = np.arange(1, longest + 1)
    for step in steps:
        grid[(*(cutoff + np.outer(lengths, step)).T, lengths)] += 1
    return _grid_counts(grid)


def _canonical_roots(d: int, cutoff: int) -> list[tuple[int, ...]]:
    """The canonical subtree roots (0, e1, ..., k e1, k e1 + e2) for
    k = 1, ..., cutoff - 1, as site codes; the origin is the grid's centre."""
    base = 2 * cutoff + 1
    origin = (base**d - 1) // 2
    return [(*range(origin, origin + k + 1), origin + k + base) for k in range(1, cutoff)]


@lru_cache(maxsize=1)
def _canonical_counts(d: int, cutoff: int) -> np.ndarray:
    """Tally of the canonical walks, a (base^d, 3(cutoff + 1)) int64 array:
    row `code` counts the walks ending at that site by length in three
    parts, in WalkClass order: every walk, the bridges, the irreducible
    bridges.

    The frontier grows from the roots in blocks of FRONTIER_BLOCK walks,
    depth first.  A walk is a bridge iff its level x0 equals its running
    maximum `top`; once it steps below level 1, `top` is cutoff + 1, which
    no level reaches, so the walk is never a bridge again.  Bit k of the
    int32 mask `down` is set once the walk steps down from level k + 1 to
    k (step 1 of `_unit_codes`, -e1); levels never exceed the cutoff, which
    MAX_CUTOFF keeps at 24 or less, so the mask fits.  A bridge steps down
    only to levels 1..top - 1, and level k is a break unless it does so to
    k, so the bridge is irreducible iff down == 2^top - 2.  The mask of a
    walk below level 1 is never read.  The last result is kept, so the
    three tables of one (d, cutoff) cost one search; callers must not
    mutate it.
    """
    base, width = 2 * cutoff + 1, cutoff + 1
    steps = _unit_codes(d, cutoff)
    tally = np.zeros((base**d, 3 * width), dtype=np.int64)
    blocks = []
    for root in _canonical_roots(d, cutoff):
        # a root ends at its running maximum: it is a bridge, and an
        # irreducible one only as (0, e1, e1 + e2)
        k = len(root) - 2
        tally[root[-1], np.arange(3 if k == 1 else 2) * width + k + 1] += 1
        if len(root) <= cutoff:
            walk = np.array([root], dtype=steps.dtype)
            # levels fit the codes' type, which keeps the blocks small
            top = np.array([k], dtype=steps.dtype)
            blocks.append((walk, top, np.zeros(1, dtype=np.int32)))
    flat = tally.reshape(-1)
    while blocks:
        walks, top, down = blocks.pop()
        depth = walks.shape[1]
        parent, step, sites = _children(walks, steps)
        level = sites % base - cutoff
        top = np.where(level < 1, width, np.maximum(level, top[parent]))
        down = down[parent] | np.left_shift(step == 1, level, dtype=np.int32)
        bridge = level == top
        irreducible = bridge & (down == np.left_shift(1, top, dtype=np.int32) - 2)
        keys = sites.astype(np.int64) * (3 * width) + depth
        parts = (keys, keys[bridge] + width, keys[irreducible] + 2 * width)
        np.add.at(flat, np.concatenate(parts), 1)
        if depth == cutoff:
            continue
        walks = np.concatenate((walks[parent], sites[:, None]), axis=1)
        for start in reversed(range(0, len(walks), FRONTIER_BLOCK)):
            stop = start + FRONTIER_BLOCK
            blocks.append((walks[start:stop], top[start:stop], down[start:stop]))
    tally.flags.writeable = False
    return tally


def enumerate_counts(d: int, cutoff: int, walk_class: WalkClass) -> CountTable:
    """Exhaustively count walks of one class up to `cutoff` steps.

    One search covers the canonical walks only (first step +e1, first turn
    +e2), tallying all three classes at once, and the class's table is
    rebuilt from its part by the orbit maps; see the module docstring.
    """
    check_dimension(d)
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    if cutoff > MAX_CUTOFF[d]:
        raise BudgetExceededError(
            f"cutoff {cutoff} exceeds {MAX_CUTOFF[d]}, the largest enumerated at d = {d}"
        )
    counts = _rebuild_table(d, cutoff, walk_class, _canonical_counts(d, cutoff))
    return CountTable(d=d, cutoff=cutoff, walk_class=walk_class, counts=counts)


def length_weights(cutoff: int, beta: float) -> np.ndarray:
    """Vector e^{-beta N} for N = 0..cutoff."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return np.exp(-beta * np.arange(cutoff + 1, dtype=np.float64))


def total_counts(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """Totals c_N over all endpoints, plus the growth sequence c_N^(1/N).

    Only meaningful for the ALL class; the second array covers N >= 1.
    """
    if table.walk_class is not WalkClass.ALL:
        raise ValueError("total_counts requires an ALL-class table")
    totals = np.zeros(table.cutoff + 1, dtype=np.int64)
    for row in table.counts.values():
        totals += row
    ns = np.arange(1, table.cutoff + 1, dtype=np.float64)
    growth = totals[1:].astype(np.float64) ** (1.0 / ns) if table.cutoff else np.zeros(0)
    return totals, growth


def evaluate_weight(table: CountTable, beta: float, x: Site) -> float:
    """Truncated two-point weight sum_N counts(x)[N] e^{-beta N}."""
    w = length_weights(table.cutoff, beta)
    row = table.counts.get(tuple(x))
    if row is None:
        return 0.0
    return float(row.astype(np.float64) @ w)


def mass_estimate(
    table: CountTable, beta: float, n_max: int
) -> tuple[np.ndarray, float]:
    """Finite-n decay-rate sequence -log w(n, 0̃)/n and its last value."""
    if table.walk_class is not WalkClass.ALL:
        raise ValueError("mass_estimate requires an ALL-class table")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = np.zeros(n_max, dtype=np.float64)
    for n in range(1, n_max + 1):
        x = (n,) + (0,) * (table.d - 1)
        w = evaluate_weight(table, beta, x)
        if w <= 0.0:
            raise ZeroWeightError(
                f"zero truncated weight at axis distance {n}; increase the cutoff"
            )
        seq[n - 1] = -math.log(w) / n
    return seq, float(seq[-1])


def slab_rates(table: CountTable, beta: float, n_max: int) -> np.ndarray:
    """Finite-n slab decay rates (1/n) log w(n) for n = 1..n_max, w(n) the
    summed truncated weight of the table's endpoints (n, y).

    For bridges against irreducible bridges, a positive difference at the
    largest n is the finite-size signature of the strictly faster
    irreducible decay (the mass gap).
    """
    if not 1 <= n_max <= table.cutoff:
        raise ValueError(f"n_max must lie in 1..{table.cutoff}")
    w = length_weights(table.cutoff, beta)
    slabs = defaultdict(list)
    for site, row in table.counts.items():
        slabs[site[0]].append(float(row.astype(np.float64) @ w))
    rates = np.zeros(n_max)
    for n in range(1, n_max + 1):
        total = math.fsum(slabs[n])
        if total <= 0.0:
            raise ZeroWeightError(f"empty slab at n={n}; cutoff too small")
        rates[n - 1] = math.log(total) / n
    return rates


def oz_prefactor(table: CountTable, beta: float, n_max: int) -> tuple[np.ndarray, float]:
    """Axis prefactor r(n) = g(n, 0̃) n^{(d-1)/2} e^{n tau_hat}, n = 1..n_max,
    and tau_hat, the last value of `mass_estimate`.

    Since g(n, 0̃) = e^{-n tau(n)}, r(n) = n^{(d-1)/2} e^{n (tau_hat - tau(n))},
    so r(n_max) = n_max^{(d-1)/2} exactly.  Flat ratios r(n + 1)/r(n) below
    n_max suggest the prefactor has the Ornstein-Zernike exponent; purely
    qualitative.
    """
    seq, tau_hat = mass_estimate(table, beta, n_max)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    return ns ** ((table.d - 1) / 2) * np.exp(ns * (tau_hat - seq)), tau_hat


def regeneration_knots(walks: np.ndarray) -> np.ndarray:
    """Knot mask of a stack of same-length walks, (w, m, d) sites to (w, m).

    A walk is a bridge iff every site after the first lies above the first
    level and at or below the last.  Level k strictly between them is a
    break point iff no step crosses down from k + 1 to k; the bridge then
    crosses up from k once, from its last visit to k, the regeneration
    site.  A bridge's row marks its first site, its regeneration sites (in
    level order, which is walk order) and its last site; any other row
    marks nothing.
    """
    levels = walks[:, :, 0] - walks[:, :1, 0]
    bridge = ((levels[:, 1:] > 0) & (levels[:, 1:] <= levels[:, -1:])).all(axis=1)
    levels = np.where(bridge[:, None], levels, 0)
    rows = np.arange(len(walks))[:, None]
    down = levels[:, 1:] < levels[:, :-1]
    crossed = np.zeros((len(walks), levels.max(initial=0) + 1), dtype=bool)
    crossed[np.broadcast_to(rows, down.shape)[down], levels[:, 1:][down]] = True
    knots = np.ones(levels.shape, dtype=bool)
    inner = levels[:, 1:-1]
    knots[:, 1:-1] = (levels[:, 2:] > inner) & ~crossed[rows, inner]
    return knots & bridge[:, None]


def knot_stacks(walks: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The regeneration knots of same-length bridges, one stack per knot
    count: (rows, knots) with knots (len(rows), count, d) sites."""
    mask = regeneration_knots(walks)
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError("skeleton is defined only for bridges")
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        yield rows, walks[rows][mask[rows]].reshape(len(rows), count, -1)


def bridges_to_axis_point(d: int, n: int, max_steps: int) -> Iterator[np.ndarray]:
    """Every bridge from the origin to (n, 0̃) with <= max_steps steps, in
    stacks of same-length walks, (walks, steps + 1, d) site arrays, each
    yielded as the array frontier finds it.  Sites stay in the slab
    1 <= x_1 <= n and within reach of the target, where a walk stops.  The
    arguments are checked, and spans above EXHAUSTIVE_SPAN_CAP refused,
    before the search starts."""
    check_dimension(d)
    if n < 1:
        raise ValueError(f"axis distance must be >= 1, got {n}")
    cap = EXHAUSTIVE_SPAN_CAP[d]
    if n > cap:
        raise ValueError(f"exhaustive enumeration supports n <= {cap} at d = {d}, got {n}")
    # a walk to (n, 0̃) has n + 2j steps: a last step of the other parity is unusable
    return _bridge_stacks(d, n, max_steps - (max_steps - n) % 2)


def _bridge_stacks(d: int, n: int, max_steps: int) -> Iterator[np.ndarray]:
    radius = max(n, max_steps)
    base = 2 * radius + 1
    steps = _unit_codes(d, radius)
    origin = (base**d - 1) // 2
    dtype = np.int8 if radius < 127 else np.int64  # every coordinate fits
    powers = base ** np.arange(d, dtype=steps.dtype)
    blocks = [np.full((1, 1), origin, dtype=steps.dtype)]
    while blocks:
        walks = blocks.pop()
        depth = walks.shape[1]
        parent, _, sites = _children(walks, steps)
        x0 = sites % base - radius
        reach, rest = n - x0, sites // base
        for _ in range(d - 1):
            reach += np.abs(rest % base - radius)
            rest //= base
        keep = (x0 >= 1) & (x0 <= n) & (reach <= max_steps - depth)
        walks = np.concatenate((walks[parent[keep]], sites[keep, None]), axis=1)
        done = walks[:, -1] == origin + n
        if done.any():
            # decoded part by part, so only small temporaries are made
            yield (walks[done, :, None] // powers % base - radius).astype(dtype)
        walks = walks[~done]
        # depth first over blocks, so few blocks are held at once
        starts = reversed(range(0, len(walks), FRONTIER_BLOCK))
        blocks += [walks[i : i + FRONTIER_BLOCK] for i in starts]


def _row_items(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous array as one void item, for np.unique."""
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    return flat.view(np.dtype((np.void, flat.strides[0]))).ravel()


def length_law(rows: dict, weights: np.ndarray) -> dict:
    """Probabilities from per-key count rows by length 0..cutoff: each
    weight sum_N row[N] weights[N] is one 1-D dot product, divided by the
    math.fsum of all of them; keys come out sorted.  Both skeleton laws end
    here, so equal rows give equal laws, bit for bit."""
    weighted = {k: float(r.astype(np.float64) @ weights) for k, r in sorted(rows.items())}
    total = math.fsum(weighted.values())
    return {key: weight / total for key, weight in weighted.items()}


def exact_conditioned_skeleton_law(
    d: int, n: int, beta: float, cutoff: int
) -> dict[tuple[int, ...], float]:
    """Skeleton law of the length-weighted bridge ensemble pinned at (n, 0̃).

    Counts the bridges with at most `cutoff` steps by skeleton and length,
    a stack at a time as the search yields them, for `length_law`; a
    skeleton's key is its flat increment coordinates (t1, y1.., t2, ...).  A
    bridge splits at its regeneration sites into irreducible legs one to
    one, so these are the rows of `renewal.product_skeleton_law`.  This is
    the exhaustive reference law the renewal sampler is tested against.
    """
    weights = length_weights(cutoff, beta)
    rows = defaultdict(lambda: np.zeros(cutoff + 1, dtype=np.int64))
    for walks in bridges_to_axis_point(d, n, cutoff):
        for _, knots in knot_stacks(walks):
            increments = np.diff(knots, axis=1).reshape(len(knots), -1)
            _, first, repeats = np.unique(
                _row_items(increments), return_index=True, return_counts=True
            )
            for key, count in zip(increments[first].tolist(), repeats.tolist()):
                rows[tuple(key)][walks.shape[1] - 1] += count
    if not rows:
        raise NoBridgesError(
            f"no bridge reaches ({n}, 0) within {cutoff} steps; need cutoff >= {n}"
        )
    return length_law(rows, weights)


# ---------------------------------------------------------------------------
# Serialization: versioned binary cache.

_MAGIC = b"SAWCOUNT"
_FORMAT_VERSION = 1
_CLASS_CODES = {WalkClass.ALL: 0, WalkClass.BRIDGE: 1, WalkClass.IRREDUCIBLE_BRIDGE: 2}
_CODE_CLASSES = {v: k for k, v in _CLASS_CODES.items()}
# magic, version, d, cutoff, class code, config blob length
_HEADER = struct.Struct("<8sIIIBI")
_COUNT = struct.Struct("<Q")


def _record_dtype(d: int, cutoff: int) -> np.dtype:
    """One endpoint record: coordinates, then the count row (no padding)."""
    return np.dtype([("site", "<i4", (d,)), ("row", "<i8", (cutoff + 1,))])


def save_count_table(table: CountTable, path: str | Path, config: dict | None = None) -> None:
    """Write a table to a binary cache with an integrity digest.

    Layout: magic, version, d, cutoff, class code, a canonical-JSON config
    blob, the endpoint count, then endpoint-sorted (coords, count row)
    records, followed by a SHA-256 digest of everything before it.
    """
    meta = json.dumps(config or {}, sort_keys=True, separators=(",", ":")).encode()
    records = np.array(
        sorted(table.counts.items()), dtype=_record_dtype(table.d, table.cutoff)
    )
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        table.d,
        table.cutoff,
        _CLASS_CODES[table.walk_class],
        len(meta),
    )
    body = header + meta + _COUNT.pack(len(records)) + records.tobytes()
    write_atomic(path, body + hashlib.sha256(body).digest())


def load_count_table(path: str | Path) -> CountTable:
    """Read a binary count cache, verifying digest, header, lengths, and
    that no endpoint repeats."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + _COUNT.size + 32:
        raise CacheFormatError(f"{path}: truncated count cache")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CacheFormatError(f"{path}: integrity digest mismatch")
    magic, version, d, cutoff, class_code, meta_len = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    if version != _FORMAT_VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    if d not in SUPPORTED_DIMENSIONS:
        raise CacheFormatError(f"{path}: unsupported dimension {d}")
    if class_code not in _CODE_CLASSES:
        raise CacheFormatError(f"{path}: unknown class code {class_code}")
    off = _HEADER.size + meta_len  # config blob is advisory; counts are authoritative
    if off + _COUNT.size > len(body):
        raise CacheFormatError(
            f"{path}: config blob of {meta_len} bytes overruns the cache"
        )
    (n_endpoints,) = _COUNT.unpack_from(body, off)
    off += _COUNT.size
    record = 4 * d + 8 * (cutoff + 1)  # the packed _record_dtype
    if n_endpoints * record != len(body) - off:
        raise CacheFormatError(
            f"{path}: {n_endpoints} records of {record} bytes disagree "
            f"with the {len(body) - off} bytes after the header"
        )
    records = np.frombuffer(body, dtype=_record_dtype(d, cutoff), offset=off)
    rows = records["row"].astype(np.int64)
    rows.flags.writeable = False
    counts = dict(zip(map(tuple, records["site"].tolist()), rows))
    if len(counts) != n_endpoints:
        raise CacheFormatError(f"{path}: repeated endpoint in count cache")
    return CountTable(
        d=d, cutoff=cutoff, walk_class=_CODE_CLASSES[class_code], counts=counts
    )
