"""Calibration of the tilted irreducible step law and the product law.

The truncated irreducible table induces forward displacement weights
f(x) for x with first coordinate >= 1.  Tilting by e^{-m x_1} and choosing
m so the total mass is one turns them into a probability law on renewal
steps; the root m_hat exists and is unique because the tilted sum is
continuous and strictly decreasing in m with limits +inf and 0.

Also here: the step law's serialization and digest, and the
product-formula skeleton law used as a cross-check against exhaustive
enumeration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .counting import BLOCK_CELLS, CountTable, WalkClass, ZeroWeightError
from .counting import length_law, length_weights
from .lattice import FrameSplit

NORMALIZATION_TOL = 1e-10
PHI_TOL = 1e-12


class EmptyTableError(ValueError):
    """The irreducible table has no forward steps to calibrate."""


class NormalizationError(ValueError):
    """A step law failed its total-mass check."""


@dataclass(frozen=True)
class StepLaw:
    """Probability law on renewal steps (t >= 1, transverse block y).

    probs(t, y) = f(t, y) * e^{-m_hat t} with f the truncated irreducible
    weight; cutoff records the truncation the weights came from.
    """

    d: int
    beta: float
    cutoff: int
    m_hat: float
    probs: dict[FrameSplit, float]

    def total_mass(self) -> float:
        return math.fsum(self.probs.values())


def _require_irreducible(table: CountTable) -> None:
    if table.walk_class is not WalkClass.IRREDUCIBLE_BRIDGE:
        raise ValueError("step-law calibration requires an irreducible-bridge table")


def forward_weights(table: CountTable, beta: float) -> dict[FrameSplit, float]:
    """Truncated irreducible weights f(x) on forward displacements x_1 >= 1."""
    _require_irreducible(table)
    w = length_weights(table.cutoff, beta)
    out: dict[FrameSplit, float] = {}
    for site, row in table.counts.items():
        if site[0] < 1:
            continue
        val = float(row.astype(np.float64) @ w)
        if val > 0.0:
            out[FrameSplit(site[0], tuple(site[1:]))] = val
    return out


def tilted_mass(weights: dict[FrameSplit, float], m: float) -> float:
    """Total tilted mass sum f(x) e^{-m x_1}."""
    return math.fsum(v * math.exp(-m * s.t) for s, v in weights.items())


def calibrate_mass(irr_table: CountTable, beta: float) -> float:
    """Root of the tilted-mass equation: the unique m with sum = 1.

    Bracketed bisection: the initial lower end -beta - log(2d) already has
    mass >= 2d from the single forward step alone, and the upper end grows
    geometrically until the mass drops below one.
    """
    weights = forward_weights(irr_table, beta)
    if not weights:
        raise EmptyTableError("no forward irreducible steps; cutoff too small")

    lo = -beta - math.log(2 * irr_table.d)
    while tilted_mass(weights, lo) <= 1.0:
        lo -= 1.0
    hi = lo + 2.0
    while tilted_mass(weights, hi) >= 1.0:
        hi = lo + 2.0 * (hi - lo)

    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = tilted_mass(weights, mid)
        if abs(val - 1.0) <= PHI_TOL:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("tilt bisection did not reach tolerance")


def build_step_law(irr_table: CountTable, beta: float, m_hat: float) -> StepLaw:
    """Tilt the forward weights by e^{-m_hat t} and check total mass."""
    weights = forward_weights(irr_table, beta)
    if not weights:
        raise EmptyTableError("no forward irreducible steps; cutoff too small")
    probs = {s: v * math.exp(-m_hat * s.t) for s, v in weights.items()}
    total = math.fsum(probs.values())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"step law mass {total!r} deviates from 1 beyond {NORMALIZATION_TOL}"
        )
    return StepLaw(
        d=irr_table.d, beta=beta, cutoff=irr_table.cutoff, m_hat=m_hat, probs=probs
    )


def truncation_tail_mass(irr_table: CountTable, beta: float, m_hat: float) -> float:
    """Tilted mass carried by the longest counted irreducible bridges.

    The last length shell of the calibrated law: a convergence indicator
    for the cutoff (small means the truncation has stabilized).
    """
    _require_irreducible(irr_table)
    length = irr_table.cutoff
    shell = math.exp(-beta * length)
    return math.fsum(
        int(row[length]) * shell * math.exp(-m_hat * site[0])
        for site, row in irr_table.counts.items()
        if site[0] >= 1 and row[length]
    )


def product_skeleton_law(
    irr_table: CountTable, beta: float, n: int
) -> dict[tuple[int, ...], float]:
    """Skeleton law from the renewal product formula, at matched truncation,
    keyed like `counting.exact_conditioned_skeleton_law`.

    The weight of a skeleton (x_1..x_k) with sum (n, 0̃) is the sum over
    per-leg walk lengths M_1..M_k with total <= cutoff of the product of
    per-leg irreducible counts times e^{-beta * total}; equivalently the
    length-truncated product of irreducible weights.  Computed by an array
    search over step sequences, rows of (step indices, t, y, the legs'
    shortest length, count row) extended by every step at once, depth
    first in blocks of at most BLOCK_CELLS (sequence, step) pairs; the
    rows reaching (n, 0̃) are normalized by `counting.length_law`.  Agrees
    bit for bit with the exhaustive conditioned law: splitting a bridge at
    its regeneration sites is a bijection, so both laws weight the same
    count rows.
    """
    _require_irreducible(irr_table)
    weights = length_weights(irr_table.cutoff, beta)
    if n < 1:
        raise ValueError(f"axis distance must be >= 1, got {n}")
    cutoff, width = irr_table.cutoff, irr_table.cutoff + 1
    sites = [s for s, row in irr_table.counts.items() if 1 <= s[0] <= n and row.any()]
    rows = np.array([irr_table.counts[s] for s in sites], dtype=np.int64).reshape(-1, width)
    coords = np.array(sites, dtype=np.int64).reshape(-1, irr_table.d)
    step_t, step_y, min_len = coords[:, 0], coords[:, 1:], (rows > 0).argmax(axis=1)
    block = max(1, BLOCK_CELLS // max(1, len(sites)))

    law: dict[tuple[int, ...], np.ndarray] = {}
    # the empty sequence: no steps, t = 0, y = 0̃, no length, the unit row
    zero = np.zeros((1, irr_table.d), dtype=np.int64)
    unit = np.eye(1, width, dtype=np.int64)
    blocks = [(zero[:, :0], zero[:, 0], zero[:, 1:], zero[:, 0], unit)]
    while blocks:
        path, t, y, used, poly = blocks.pop()
        # cut each (sequence, step) pair whose cheapest completion, the rest
        # of the axis and the transverse offset back to zero, overruns
        cost = np.abs(y[:, None] + step_y).sum(axis=2)
        cost += (used - t)[:, None] + (min_len - step_t)
        parent, step = np.nonzero((t[:, None] + step_t <= n) & (cost <= cutoff - n))
        # the truncated convolution, shift and add over the parents' lags
        head, tail = poly[parent], rows[step]
        poly = np.zeros_like(head)
        for lag in range(int(used.min()), width):
            poly[:, lag:] += head[:, lag, None] * tail[:, : width - lag]
        path = np.column_stack((path[parent], step))
        t, y = t[parent] + step_t[step], y[parent] + step_y[step]
        used = used[parent] + min_len[step]
        done = t == n
        pinned = np.flatnonzero(done & ~y.any(axis=1))
        keys = coords[path[pinned]].reshape(len(pinned), path.shape[1] * irr_table.d)
        law.update(zip(map(tuple, keys.tolist()), poly[pinned]))
        live = np.flatnonzero(~done)
        for i in reversed(range(0, len(live), block)):
            at = live[i : i + block]
            blocks.append((path[at], t[at], y[at], used[at], poly[at]))
    if not law:
        raise ZeroWeightError(f"no skeleton reaches ({n}, 0̃) within the cutoff")
    return length_law(law, weights)


# ---------------------------------------------------------------------------
# Serialization.


def _law_payload(law: StepLaw) -> dict:
    return {
        "d": law.d,
        "beta": law.beta,
        "L": law.cutoff,
        "m_hat": law.m_hat,
        "steps": [
            {"t": s.t, "y": list(s.y), "p": p} for s, p in sorted(law.probs.items())
        ],
    }


def step_law_to_json(law: StepLaw) -> str:
    return json.dumps(_law_payload(law), indent=2, sort_keys=True)


def step_law_digest(law: StepLaw) -> str:
    """Short content hash identifying a law in ensemble provenance."""
    blob = json.dumps(_law_payload(law), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def step_law_from_json(text: str) -> StepLaw:
    payload = json.loads(text)
    probs = {
        FrameSplit(int(s["t"]), tuple(int(c) for c in s["y"])): float(s["p"])
        for s in payload["steps"]
    }
    law = StepLaw(
        d=int(payload["d"]),
        beta=float(payload["beta"]),
        cutoff=int(payload["L"]),
        m_hat=float(payload["m_hat"]),
        probs=probs,
    )
    if any(s.t < 1 for s in probs):
        raise NormalizationError("step law contains a non-advancing step")
    if abs(law.total_mass() - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError("step law mass is off after deserialization")
    return law
