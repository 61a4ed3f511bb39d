"""Statistical verification of the scaling limit on sampled ensembles.

The renewal skeleton, diffusively rescaled and linearly interpolated,
should behave like a Brownian bridge as the span grows.  This module
quantifies that claim on finite ensembles four ways:

* the empirical covariance of the scaled process on a fixed time grid is
  fitted against the bridge kernel sigma^2 * s * (1 - t), yielding a
  variance estimate and a relative misfit;
* a fixed-time marginal is tested for Gaussianity by a one-sample
  Kolmogorov-Smirnov statistic, taken at lattice cell boundaries, with
  the asymptotic p-value series;
* the largest single renewal increment is compared against the n^(1/3)
  scale, whose exceedance fraction should vanish as the span grows;
* a full walk is compared against its own skeleton interpolation in the
  scaled metric, which should shrink as the span grows.

Everything here is a pure reduction over immutable arrays; nothing
mutates shared state, so callers may parallelize over ensembles freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .counting import knot_stacks
from .lattice import self_avoiding
from .sampler import SkeletonBatch, evaluate_process_grid

KS_SERIES_TERMS = 100
# below this lambda the series' first omitted term exceeds 2^-53: it has not converged
KS_THETA_BELOW = math.sqrt(53 * math.log(2) / 2) / (KS_SERIES_TERMS + 1)
MIN_KS_SAMPLE = 100


class DegenerateFitError(ValueError):
    """The empirical covariance carries no signal to fit."""


@dataclass(frozen=True)
class BridgeFit:
    """Least-squares match of an empirical covariance to the bridge kernel."""

    sigma2_hat: float
    rel_rms: float


def require_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a nonempty vector")
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise ValueError("grid times must lie strictly inside (0, 1)")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid times must be strictly increasing")


def build_ensemble(batch: SkeletonBatch, grid: np.ndarray) -> np.ndarray:
    """The scaled process of every skeleton on a checked grid: values[r, g, j]
    is transverse coordinate j of replicate r at grid time g."""
    if not len(batch):
        raise ValueError("ensemble needs at least one skeleton")
    grid = np.asarray(grid, dtype=np.float64)
    require_grid(grid)
    return evaluate_process_grid(batch, grid)


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance across replicates of build_ensemble's
    values, averaged over the exchangeable transverse coordinates."""
    reps, _, coords = values.shape
    if reps < 2:
        raise ValueError("covariance needs at least two replicates")
    acc = None
    for j in range(coords):
        block = values[:, :, j]
        centered = block - block.mean(axis=0)
        cov = centered.T @ centered / (reps - 1)
        acc = cov if acc is None else acc + cov
    return acc / coords


def bridge_kernel(grid: np.ndarray) -> np.ndarray:
    """Covariance pattern min(s, t) * (1 - max(s, t)) on the grid."""
    s = np.minimum.outer(grid, grid)
    t = np.maximum.outer(grid, grid)
    return s * (1.0 - t)


def fit_bridge_covariance(cov: np.ndarray, grid: np.ndarray) -> BridgeFit:
    """Scale the bridge kernel onto an empirical covariance.

    sigma2_hat is the least-squares scalar over the upper triangle
    (diagonal included); rel_rms is the residual norm over the norm of
    the fitted model on the same entries.
    """
    grid = np.asarray(grid, dtype=np.float64)
    require_grid(grid)
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (grid.size, grid.size):
        raise ValueError("covariance shape does not match the grid")
    if not cov.any():
        raise DegenerateFitError("empirical covariance is identically zero")
    kernel = bridge_kernel(grid)
    upper = np.triu_indices(grid.size)
    sigma2 = float(cov[upper] @ kernel[upper]) / float(kernel[upper] @ kernel[upper])
    if sigma2 <= 0.0:
        raise DegenerateFitError(
            f"covariance projects to a nonpositive variance {sigma2:.3e}"
        )
    model = sigma2 * kernel
    residuals = cov - model
    rel_rms = float(
        np.linalg.norm(residuals[upper]) / np.linalg.norm(model[upper])
    )
    return BridgeFit(sigma2_hat=sigma2, rel_rms=rel_rms)


def kolmogorov_pvalue(statistic: float, sample_size: int) -> float:
    """Asymptotic Kolmogorov tail 2 * sum (-1)^(j-1) exp(-2 j^2 lambda^2), truncated
    after a fixed number of terms and clamped to [0, 1]; below KS_THETA_BELOW, the same
    tail as 1 - (sqrt(2 pi) / lambda) * sum_{k >= 1} exp(-(2k - 1)^2 pi^2 / (8 lambda^2))."""
    lam = math.sqrt(sample_size) * statistic
    if lam <= 0.0:
        return 1.0
    if lam < KS_THETA_BELOW:  # there every theta term past k = 1 underflows to 0
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * math.exp(-((math.pi / lam) ** 2) / 8)
    total = 0.0
    for j in range(1, KS_SERIES_TERMS + 1):
        total += (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return min(1.0, max(0.0, 2.0 * total))


def _normal_cdf(values: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(values / math.sqrt(2.0)))


def ks_marginal(
    marginal: np.ndarray, n: int, t: float, sigma2_hat: float
) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov check of a fixed-time marginal.

    marginal is Y(t) for each replicate of span n, build_ensemble's grid
    column values[:, g].  Its first transverse coordinate, standardized by
    the fitted bridge variance sigma2_hat * t * (1 - t), is compared
    against the standard normal.  Returns (statistic, asymptotic p-value).

    Marginals of a lattice walk are supported on a grid of spacing
    1/sqrt(n), so their empirical CDF climbs in steps that no continuous
    law can follow: against a continuous reference the classic sup over
    the sample has a deterministic floor of about half an atom's mass,
    however well the walk converges in distribution.  The CDFs are
    therefore compared at the boundaries of the unit lattice's cells,
    where the discretized and continuous references agree.
    """
    if sigma2_hat <= 0.0:
        raise ValueError(f"variance must be positive, got {sigma2_hat}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"marginal time must be inside (0, 1), got {t}")
    reps = len(marginal)
    if reps < MIN_KS_SAMPLE:
        raise ValueError(f"need at least {MIN_KS_SAMPLE} replicates, got {reps}")
    if n < 1:
        raise ValueError("lattice-aware comparison needs the ensemble span")
    scale = math.sqrt(sigma2_hat * t * (1.0 - t))
    sample = np.sort(marginal[:, 0] / scale)
    spacing = 1.0 / (math.sqrt(n) * scale)
    low = math.floor(sample[0] / spacing) - 1
    high = math.ceil(sample[-1] / spacing) + 1
    boundaries = (np.arange(low, high + 1) + 0.5) * spacing
    empirical = np.searchsorted(sample, boundaries, side="right") / reps
    statistic = float(np.abs(empirical - _normal_cdf(boundaries)).max())
    return statistic, kolmogorov_pvalue(statistic, reps)


def gap_statistic(batch: SkeletonBatch) -> float:
    """Fraction of skeletons with an increment longer than the batch's n^(1/3).

    Increment length is the Euclidean norm of the full displacement,
    longitudinal part included.  The comparison |x| > n^(1/3) is made
    exactly, in integers, as |x|^6 > n^2: the floating cube root of a
    perfect cube can land just below it (125 ** (1/3) < 5), which would
    count an increment of norm exactly n^(1/3) as longer.
    """
    if not len(batch):
        raise ValueError("no skeletons given")
    norm2 = np.einsum("ij,ij->i", batch.steps, batch.steps)
    largest2 = np.maximum.reduceat(norm2, batch.offsets[:-1])
    # Python integers, so the cube cannot overflow
    exceeding = sum(value**3 > batch.n**2 for value in largest2.tolist())
    return exceeding / len(batch)


def _distance_to_polyline(points: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a piecewise-linear curve, for
    a stack of curves: points (w, p, d) and knots (w, s + 1, d) give (w, p)."""
    starts = knots[:, :-1]
    spans = knots[:, 1:] - starts
    lengths2 = np.einsum("wsd,wsd->ws", spans, spans)
    lengths2[lengths2 == 0.0] = 1.0
    offsets = points[:, :, None, :] - starts[:, None, :, :]
    position = np.clip(
        np.einsum("wpsd,wsd->wps", offsets, spans) / lengths2[:, None, :], 0.0, 1.0
    )
    nearest = starts[:, None, :, :] + position[..., None] * spans[:, None, :, :]
    return np.linalg.norm(points[:, :, None, :] - nearest, axis=3).min(axis=2)


def shrinking_statistic(walks: Sequence[ArrayLike], n: int) -> np.ndarray:
    """Largest scaled distance from each walk's vertices to its skeleton curve.

    `walks` holds walks, or stacks of same-length walks as (walks, sites,
    d) arrays; the values come out in that order, a stack's in row order.
    The skeleton curve joins the walk's regeneration knots.  The walk and
    the curve are both mapped to scaled coordinates (first component over
    n, transverse components over sqrt(n)); the statistic is the sup over
    walk vertices of the Euclidean distance to the piecewise-linear curve.
    The walks of a stack with equal knot counts are measured as one array.
    """
    values = []
    for stack in walks:
        stack = np.reshape(stack, (-1, *np.shape(stack)[-2:]))
        if (stack[:, -1, 0] != n).any() or stack[:, -1, 1:].any():
            raise ValueError(f"walk must end on the axis at ({n}, 0)")
        if not self_avoiding(stack).all():
            raise ValueError("site sequence is not a self-avoiding walk")
        scale = np.array([n] + [math.sqrt(n)] * (stack.shape[2] - 1))
        out = np.empty(len(stack))
        for rows, knots in knot_stacks(stack):
            distances = _distance_to_polyline(stack[rows] / scale, knots / scale)
            out[rows] = distances.max(axis=1)
        values.append(out)
    return np.concatenate(values) if values else np.zeros(0)
