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

from .counting import BLOCK_CELLS, CountTable, WalkClass
from .counting import length_law, length_weights, row_weights
from .lattice import FrameSplit

NORMALIZATION_TOL = 1e-10
PHI_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StepLaw:
    """Probability law on renewal steps (t >= 1, transverse block y).

    steps holds one read-only int64 row (t, y_1, ..., y_{d-1}) per step,
    sorted by (t, y), the row layout of `SkeletonBatch.steps`; p holds
    p(t, y) = f(t, y) * e^{-m_hat t} with f the truncated irreducible
    weight.  cutoff records the truncation the weights came from.
    """

    d: int
    beta: float
    cutoff: int
    m_hat: float
    steps: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        self.steps.setflags(write=False)
        self.p.setflags(write=False)

    def __reduce__(self) -> tuple:
        # rebuilt through the constructor, so an unpickled law is read-only too
        return StepLaw, (self.d, self.beta, self.cutoff, self.m_hat, self.steps, self.p)

    @property
    def probs(self) -> dict[FrameSplit, float]:
        """The law as {FrameSplit(t, y): p} in (t, y) order: the form the
        benchmark tracer (`perfbench/tracer.py`) reads, until it reads the arrays."""
        rows = self.steps.tolist()
        return {FrameSplit(t, tuple(y)): p for (t, *y), p in zip(rows, self.p.tolist())}

    def total_mass(self) -> float:
        return math.fsum(self.p.tolist())


def _require_irreducible(table: CountTable) -> None:
    if table.walk_class is not WalkClass.IRREDUCIBLE_BRIDGE:
        raise ValueError("step-law calibration requires an irreducible-bridge table")


def forward_weights(table: CountTable, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated irreducible weights f(x) on forward displacements x_1 >= 1:
    the int64 (t, y) rows with f > 0, sorted by (t, y), and their f.
    Refuses a table with no such row."""
    _require_irreducible(table)
    forward = table.sites[:, 0] >= 1
    f = row_weights(table.rows[forward], length_weights(table.cutoff, beta))
    if not np.any(f > 0.0):
        raise ValueError("no forward irreducible steps; cutoff too small")
    return table.sites[forward][f > 0.0], f[f > 0.0]


def tilt(steps: np.ndarray, f: np.ndarray, m: float) -> tuple[np.ndarray, float]:
    """Tilted weights f(x) e^{-m x_1} and their math.fsum total; e^{-m k} is
    one math.exp per step length k (np.exp need not round as math.exp)."""
    e = np.array([math.exp(-m * k) for k in range(int(steps[:, 0].max(initial=0)) + 1)])
    q = f * e[steps[:, 0]]
    return q, math.fsum(q.tolist())


def calibrate_mass(irr_table: CountTable, beta: float) -> float:
    """Root of the tilted-mass equation: the unique m with sum = 1.

    Bracketed bisection: the initial lower end -beta - log(2d) already has
    mass >= 2d from the single forward step alone, and the upper end grows
    geometrically until the mass drops below one.
    """
    steps, f = forward_weights(irr_table, beta)

    lo = -beta - math.log(2 * irr_table.d)
    while tilt(steps, f, lo)[1] <= 1.0:
        lo -= 1.0
    hi = lo + 2.0
    while tilt(steps, f, hi)[1] >= 1.0:
        hi = lo + 2.0 * (hi - lo)

    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = tilt(steps, f, mid)[1]
        if abs(val - 1.0) <= PHI_TOL:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("tilt bisection did not reach tolerance")


def build_step_law(irr_table: CountTable, beta: float, m_hat: float) -> StepLaw:
    """Tilt the forward weights by e^{-m_hat t} and check total mass."""
    steps, f = forward_weights(irr_table, beta)
    p, total = tilt(steps, f, m_hat)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(
            f"step law mass {total!r} deviates from 1 beyond {NORMALIZATION_TOL}"
        )
    return StepLaw(irr_table.d, beta, irr_table.cutoff, m_hat, steps, p)


def truncation_tail_mass(irr_table: CountTable, beta: float, m_hat: float) -> float:
    """Tilted mass of the last length shell, `tilt` of the forward counts at
    length cutoff times e^{-beta cutoff}: a convergence indicator for the
    cutoff (small means the truncation has stabilized)."""
    _require_irreducible(irr_table)
    forward = irr_table.sites[:, 0] >= 1
    last = irr_table.rows[forward, -1] * math.exp(-beta * irr_table.cutoff)
    return tilt(irr_table.sites[forward], last, m_hat)[1]


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
    keep = (irr_table.sites[:, 0] >= 1) & (irr_table.sites[:, 0] <= n)
    coords, rows = irr_table.sites[keep], irr_table.rows[keep]
    step_t, step_y, min_len = coords[:, 0], coords[:, 1:], (rows > 0).argmax(axis=1)
    block = max(1, BLOCK_CELLS // max(1, len(coords)))

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
        raise ValueError(f"no skeleton reaches ({n}, 0̃) within the cutoff")
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
            {"t": t, "y": y, "p": p}
            for (t, *y), p in zip(law.steps.tolist(), law.p.tolist())
        ],
    }


def step_law_to_json(law: StepLaw) -> str:
    return json.dumps(_law_payload(law), indent=2, sort_keys=True)


def step_law_digest(law: StepLaw) -> str:
    """Short content hash identifying a law in ensemble provenance."""
    blob = json.dumps(_law_payload(law), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _typed(payload: dict, name: str, *kinds: type):
    """payload[name], refused unless its type is one of kinds."""
    if type(payload[name]) not in kinds:
        kind = "an integer" if kinds == (int,) else "a number"
        raise ValueError(f"step law {name} {payload[name]!r} is not {kind}")
    return payload[name]


def step_law_from_json(text: str) -> StepLaw:
    """The law `step_law_to_json` wrote.  Refuses a d, L or t that is not an
    integer, a beta, m_hat or p that is not a number, a t or p that is not
    positive, a y that is not d - 1 integers, steps not strictly increasing
    in (t, y), and a mass off one."""
    payload = json.loads(text)
    # type(), not isinstance(): JSON true is a bool, which is an int
    d, rows, p = _typed(payload, "d", int), [], []
    for i, s in enumerate(payload["steps"]):
        t, y, p_i = s["t"], s["y"], s["p"]
        if type(t) is not int or t < 1:
            raise ValueError(f"step law step {i} has t {t!r}, not a positive integer")
        if type(y) is not list or len(y) != d - 1 or any(type(c) is not int for c in y):
            raise ValueError(f"step law step {i} has y {y!r}, not d - 1 = {d - 1} integers")
        if type(p_i) not in (int, float) or not p_i > 0.0:
            raise ValueError(f"step law step {i} has p {p_i!r}, not a positive number")
        if rows and not rows[-1] < (t, *y):
            raise ValueError(
                f"step law steps {i - 1} and {i} are not strictly increasing in (t, y)"
            )
        rows.append((t, *y))
        p.append(p_i)
    steps = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    cutoff = _typed(payload, "L", int)
    beta, m_hat = (float(_typed(payload, name, int, float)) for name in ("beta", "m_hat"))
    law = StepLaw(d, beta, cutoff, m_hat, steps, np.array(p, dtype=np.float64))
    if not abs(law.total_mass() - 1.0) <= NORMALIZATION_TOL:
        raise ValueError("step law mass is off after deserialization")
    return law
