"""Exact sampling of renewal skeletons pinned at (n, 0̃), and their scaled process.

The step law lives on displacements (t >= 1, y); conditioning on the
partial sums hitting (n, 0̃) is handled in two passes:

* a forward dynamic program over slabs t = 0..n computes the pinned
  partition function G(t, y) = total product mass of step sequences from
  (0, 0̃) to (t, y), truncated to a transverse box of radius R, with one
  floating mantissa slab plus a log-scale offset per t so nothing
  underflows at large n;
* backward sampling then draws the last increment x of a path ending at
  (t, y) with probability proportional to Q(x) G(t - x_t, y - x_y) and
  recurses, which reproduces the conditioned product law exactly
  (within the box truncation, whose leakage is measured against a wider
  box and reported).

Both passes index one lag-padded slab array: the law's longest t of
empty slabs before slab 0, and a zero margin of one step's reach (its
widest transverse displacement) around the box.  So every predecessor of
an in-box state is an entry: nothing is clipped or masked, and a sampler
state is one flat index that step i moves by a fixed offset.  The DP
builds slab t from one gathered block (every step's window of slab
t - t_i, times its coefficient) summed along the steps by one reduction:
the same floating-point operations, in law order, as one update per step.

Sampling is batched: replicate streams are independent, and every
per-replicate decision uses that replicate's own uniforms, so results
are bit-identical regardless of batch or thread partitioning.

Full walks (not just skeletons) are available only by exhaustive
enumeration at small n; that enumeration lives here too.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counting import BLOCK_CELLS, NoBridgesError, bridges_to_axis_point
from .lattice import FrameSplit, Site
from .renewal import StepLaw
from .rng import uniform_block

MAX_LEAKAGE = 1e-6
# replicates per backward-sampling batch, and per pool task when threaded
BATCH_SIZE = 4096


class BoxTooSmallError(ValueError):
    """The transverse box cannot contain a single step of the law."""


class UnreachableStateError(RuntimeError):
    """Backward sampling reached a state with no in-box predecessor."""


class LeakageError(RuntimeError):
    """Box truncation leaks more probability than the configured bound."""


@dataclass(frozen=True)
class Skeleton:
    """A sequence of renewal increments with longitudinal total n."""

    increments: tuple[FrameSplit, ...]
    n: int


@dataclass(frozen=True, eq=False)
class SkeletonBatch(Sequence[Skeleton]):
    """An ensemble of pinned skeletons of one span, stored column-wise.

    steps holds every increment of every skeleton as one int64 row
    (t, y_1, ..., y_{d-1}); skeleton r owns rows offsets[r]:offsets[r + 1].
    Construction checks, for every skeleton at once, that it is nonempty,
    advances along the axis at every step, spans n and ends on the axis.
    Indexing yields the walk-level Skeleton of one replicate.
    """

    n: int
    steps: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        lengths = np.diff(self.offsets)
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.steps):
            raise ValueError("skeleton offsets do not cover the steps")
        if np.any(lengths < 1):
            raise ValueError("skeleton has no increments")
        if np.any(self.steps[:, 0] < 1):
            raise ValueError("skeleton increments must advance along the axis")
        totals = np.add.reduceat(self.steps, self.offsets[:-1], axis=0)
        if np.any(totals[:, 0] != self.n):
            raise ValueError("skeleton increments do not sum to its span")
        if totals[:, 1:].any():
            raise ValueError("skeleton is not pinned to the axis endpoint")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> Skeleton:
        r = range(len(self))[operator.index(index)]
        rows = self.steps[self.offsets[r] : self.offsets[r + 1]]
        return Skeleton(increments=_increments(rows), n=self.n)

    def layout(self) -> np.ndarray:
        """(replicate, k, step_index) of every step, one row per step."""
        lengths = np.diff(self.offsets)
        replicate = np.repeat(np.arange(len(self)), lengths)
        index = np.arange(len(self.steps)) - self.offsets[replicate]
        return np.column_stack((replicate, lengths[replicate], index))

    def tally(self) -> dict[tuple[FrameSplit, ...], int]:
        """How many replicates drew each distinct skeleton, keyed by its
        increments, in order of first appearance."""
        d = self.steps.shape[1]
        data = memoryview(np.ascontiguousarray(self.steps, dtype=np.int64)).cast("B")
        counts = Counter(data[a:b].tobytes() for a, b in pairwise(self.offsets * 8 * d))
        return {
            _increments(np.frombuffer(key, np.int64).reshape(-1, d)): count
            for key, count in counts.items()
        }


def _increments(rows: np.ndarray) -> tuple[FrameSplit, ...]:
    return tuple(FrameSplit(t, tuple(y)) for t, *y in rows.tolist())


@dataclass(frozen=True)
class PartitionTable:
    """Pinned partition function G over slabs, in mantissa/log-scale form.

    padded holds the mantissas in the lag-padded layout both passes index
    (see the module docstring); mantissa[t] is its box at slab t, scaled to
    unit maximum, and log_scale[t] restores the true magnitude (-inf marks
    an empty slab).  leakage reports how much conditioned mass the box
    truncation lost, measured against a wider box.
    """

    d: int
    n: int
    radius: int
    padded: np.ndarray
    log_scale: np.ndarray
    leakage: float

    @property
    def mantissa(self) -> np.ndarray:
        width = 2 * self.radius + 1
        reach = (self.padded.shape[1] - width) // 2
        box = (slice(reach, reach + width),) * (self.d - 1)
        return self.padded[(slice(-self.n - 1, None), *box)]

    def value(self, t: int, y: Site) -> float:
        idx = tuple(c + self.radius for c in y)
        if not 0 <= t <= self.n or any(not 0 <= i < 2 * self.radius + 1 for i in idx):
            return 0.0
        return float(self.mantissa[t][idx] * math.exp(self.log_scale[t]))


def law_arrays(law: StepLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (t, y, p) arrays of a step law, sorted by (t, y)."""
    items = sorted(law.probs.items())
    t_arr = np.array([s.t for s, _ in items], dtype=np.int64)
    y_arr = np.array([s.y for s, _ in items], dtype=np.int64).reshape(
        len(items), law.d - 1
    )
    p_arr = np.array([p for _, p in items], dtype=np.float64)
    return t_arr, y_arr, p_arr


def transverse_step_variance(law: StepLaw) -> float:
    """Mean squared transverse displacement per step, per coordinate."""
    _, y_arr, p_arr = law_arrays(law)
    if y_arr.shape[1] == 0:
        return 0.0
    return float(np.sum(p_arr[:, None] * y_arr.astype(np.float64) ** 2) / y_arr.shape[1])


def default_box_radius(law: StepLaw, n: int) -> int:
    """Four Gaussian standard deviations of transverse spread, floored so a
    single step always fits."""
    reach = _max_reach(law)
    spread = math.ceil(4.0 * math.sqrt(n * transverse_step_variance(law)))
    return max(spread, reach, 1)


def _max_reach(law: StepLaw) -> int:
    return max((max((abs(c) for c in s.y), default=0) for s in law.probs), default=0)


def _forward_slabs(
    t_arr: np.ndarray,
    y_arr: np.ndarray,
    p_arr: np.ndarray,
    n: int,
    radius: int,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    d = y_arr.shape[1] + 1
    width = 2 * radius + 1
    lag = int(t_arr.max())
    # `lag` empty slabs before t = 0 and a zero margin of `reach` sites let
    # every step read one fixed window of its source slab
    padded = np.zeros((lag + n + 1, *(width + 2 * reach,) * (d - 1)))
    padded[(lag, *(reach + radius,) * (d - 1))] = 1.0
    log_scale = np.full(n + 1, -np.inf)
    log_scale[0] = 0.0
    box = (slice(reach, reach + width),) * (d - 1)
    windows = sliding_window_view(padded, (width,) * (d - 1), axis=tuple(range(1, d)))
    corners = tuple(reach - y_arr.T)
    lengths = sorted(set(t_arr.tolist()))
    rows = max(1, BLOCK_CELLS // width ** (d - 1) - 1)
    # the running sum is contiguous: reducing into a slab's strided box is
    # several times slower at d = 4
    total = np.empty((width,) * (d - 1))

    for t in range(1, n + 1):
        live = [tj for tj in lengths if tj <= t and log_scale[t - tj] > -np.inf]
        anchor = max((log_scale[t - tj] for tj in live), default=0.0)
        scale = np.zeros(lag + 1)  # by step length; 0 for a dead lag
        for tj in live:
            scale[tj] = math.exp(log_scale[t - tj] - anchor)
        coef = scale[t_arr] * p_arr
        terms = np.flatnonzero(coef)  # the rest would add exact zeros
        if not terms.size:
            continue
        # terms sum in law order: np.add.reduce adds the rows of a block in
        # order when a row has more than one cell (so radius >= 1), and a
        # later block carries the running sum as its first row
        for a in range(0, len(terms), rows):
            i = terms[a : a + rows]
            block = windows[(lag + t - t_arr[i], *(c[i] for c in corners))]
            block *= coef[i].reshape(-1, *(1,) * (d - 1))
            if a:
                block[0] += total
            np.add.reduce(block, axis=0, out=total)
            del block  # before the next one is gathered
        peak = float(total.max())
        if peak > 0.0:
            np.divide(total, peak, out=padded[lag + t][box])
            log_scale[t] = anchor + math.log(peak)
    return padded, log_scale


def dp_partition(law: StepLaw, n: int, radius: int | None = None) -> PartitionTable:
    """Forward DP for the pinned partition function, with leakage measured
    against a half-again-wider box."""
    if n < 1:
        raise ValueError(f"span must be >= 1, got {n}")
    reach = _max_reach(law)
    if radius is None:
        radius = default_box_radius(law, n)
    if radius < max(reach, 1):
        raise BoxTooSmallError(
            f"box radius {radius} is below 1 or below the law's transverse reach {reach}"
        )
    t_arr, y_arr, p_arr = law_arrays(law)
    padded, log_scale = _forward_slabs(t_arr, y_arr, p_arr, n, radius, reach)

    wide = radius + max(2 * reach, (radius + 1) // 2)
    padded_w, logs_w = _forward_slabs(t_arr, y_arr, p_arr, n, wide, reach)

    pinned = padded[(-1, *(reach + radius,) * (law.d - 1))]
    pinned_w = padded_w[(-1, *(reach + wide,) * (law.d - 1))]
    if pinned_w <= 0.0 or log_scale[n] == -np.inf:
        leakage = 0.0 if pinned <= 0.0 else 1.0
    else:
        ratio = (pinned / pinned_w) * math.exp(log_scale[n] - logs_w[n])
        leakage = max(0.0, 1.0 - ratio)
    return PartitionTable(law.d, n, radius, padded, log_scale, leakage)


def require_leakage(partition: PartitionTable) -> None:
    if partition.leakage >= MAX_LEAKAGE:
        raise LeakageError(
            f"box truncation leaks {partition.leakage:.3e} >= {MAX_LEAKAGE:.1e}; "
            "increase the radius"
        )


def _sample_batch(
    law: StepLaw, partition: PartitionTable, seed: int, reps: range | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Law-step indices (in forward order) and increment counts of one
    replicate batch."""
    t_arr, y_arr, p_arr = law_arrays(law)
    n = partition.n
    n_reps = len(reps)

    # log G in the table's padded layout, -inf wherever its mantissa is 0
    with np.errstate(divide="ignore"):
        log_g = np.log(partition.padded)
        log_p = np.log(p_arr)
    lag = len(log_g) - n - 1
    log_g[lag:] += partition.log_scale.reshape(-1, *(1,) * (law.d - 1))
    stride = np.array(log_g.strides) // log_g.itemsize
    offset = np.column_stack((t_arr, y_arr)) @ stride
    slab_1 = (lag + 1) * stride[0]  # the first state past slab 0
    log_g = log_g.ravel()

    uniforms = uniform_block(seed, reps, n)
    # (n, 0̃) is the centre of slab n, whose sides are odd
    state = np.full(n_reps, (lag + n) * stride[0] + stride[0] // 2)
    choices = np.zeros((n_reps, n), dtype=np.int32)
    rounds = np.zeros(n_reps, dtype=np.int64)

    # The backward kernel at a state depends on that state alone, so each
    # round builds it once per distinct state and gathers it per replicate.
    active = np.arange(n_reps)
    j = 0
    while active.size:
        states, inverse = np.unique(state[active], return_inverse=True)
        weights_log = log_p[None, :] + log_g[states[:, None] - offset[None, :]]

        row_max = weights_log.max(axis=1)
        dead = row_max == -np.inf
        if dead.any():
            bad = reps[int(active[int(np.argmax(dead[inverse]))])]
            raise UnreachableStateError(
                f"replicate {bad}: no in-box predecessor; partition table "
                "inconsistent with the law"
            )
        cumulative = np.cumsum(np.exp(weights_log - row_max[:, None]), axis=1)
        target = uniforms[active, j] * cumulative[inverse, -1]
        above = cumulative[inverse] > target[:, None]
        picked = np.argmax(above, axis=1)
        picked[~above.any(axis=1)] = len(t_arr) - 1

        choices[active, j] = picked
        state[active] -= offset[picked]
        rounds[active] = j + 1
        active = active[state[active] >= slab_1]
        j += 1

    # choices are drawn last increment first, so each reversed row ends
    # with that replicate's increments in forward order
    return choices[:, ::-1][np.arange(n) >= (n - rounds)[:, None]], rounds


def sample_skeletons(
    law: StepLaw,
    partition: PartitionTable,
    seed: int,
    replicates: range | list[int],
    *,
    threads: int = 1,
) -> SkeletonBatch:
    """Draw one pinned skeleton per replicate id, in replicate order.

    Replicates run in batches of BATCH_SIZE, one pool task each when
    threads > 1; per-replicate streams make the output independent of
    how the replicates are split and of the thread count.
    """
    if partition.value(partition.n, (0,) * (partition.d - 1)) <= 0.0:
        raise UnreachableStateError(
            f"pinned mass at ({partition.n}, 0̃) is zero; box or law misconfigured"
        )
    batches = [
        replicates[i : i + BATCH_SIZE] for i in range(0, len(replicates), BATCH_SIZE)
    ]
    if threads <= 1 or len(batches) <= 1:
        parts = [_sample_batch(law, partition, seed, batch) for batch in batches]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(_sample_batch, repeat(law), repeat(partition), repeat(seed), batches)
            )
    picked = np.concatenate([np.zeros(0, dtype=np.int32)] + [p for p, _ in parts])
    lengths = np.concatenate([np.zeros(1, dtype=np.int64)] + [k for _, k in parts])
    del parts  # the picks once, not twice, while the steps are gathered
    t_arr, y_arr, _ = law_arrays(law)
    steps = np.column_stack((t_arr, y_arr))[picked]
    return SkeletonBatch(n=partition.n, steps=steps, offsets=np.cumsum(lengths))


def evaluate_process_grid(batch: SkeletonBatch, grid: np.ndarray) -> np.ndarray:
    """Scaled process of every skeleton on the grid, shape (replicates, times, d - 1).

    Knots sit at (s_t / n, s_y / sqrt(n)) for the partial sums s of a
    skeleton, from (0, 0̃) to (1, 0̃), joined linearly.  Values equal
    np.interp on each skeleton's knots bit for bit: the same knot search,
    a time on a knot takes the knot's value, and numpy's slope formula.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size and (grid.min() < 0.0 or grid.max() > 1.0):
        raise ValueError("grid times must lie in [0, 1]")
    n, d = batch.n, batch.steps.shape[1]
    sums = np.zeros((len(batch.steps) + 1, d), dtype=np.int64)
    np.cumsum(batch.steps, axis=0, out=sums[1:])
    # Every skeleton ends at (n, 0̃), so the running sums over the whole
    # batch pass through skeleton r's knots shifted by (r * n, 0̃), the
    # last knot of one skeleton being the first of the next.  The last
    # knot at or before time x is found exactly, in integers: its
    # shifted time is at most r * n + (the largest c with c / n <= x).
    start = np.arange(len(batch))[:, None] * n
    below = np.searchsorted(np.arange(n + 1) / n, grid, side="right") - 1
    at = np.searchsorted(sums[:, 0], start + below, side="right") - 1
    knots = np.stack((at, np.minimum(at + 1, len(sums) - 1)))  # and the next knot
    times = (sums[knots, 0] - start) / n
    values = sums[knots, 1:] / math.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (values[1] - values[0]) / (times[1] - times[0])[..., None]
    inside = slope * (grid - times[0])[..., None] + values[0]
    return np.where((times[0] == grid)[..., None], values[0], inside)


class ExhaustiveWalkSampler:
    """Every bridge to (n, 0̃) within the step cutoff, by total enumeration:
    `walks` lists the stacks of same-length walks `bridges_to_axis_point`
    yields.  Callers apply the full-walk law's weights e^{-beta * steps}."""

    def __init__(self, d: int, n: int, cutoff: int):
        self.d, self.n, self.cutoff = d, n, cutoff
        self.walks = list(bridges_to_axis_point(d, n, cutoff))
        if not self.walks:
            raise NoBridgesError(f"no bridge reaches ({n}, 0) within {cutoff} steps")
