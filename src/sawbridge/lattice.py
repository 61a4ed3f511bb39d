"""Hypercubic lattice geometry.

A walk is a sequence of sites in Z^d, each site a d-tuple of ints.  The
first coordinate plays a distinguished role throughout the package: walks
are measured along axis 0 ("longitudinal"), and the remaining d-1
coordinates form the transverse block, and a FrameSplit holds a
displacement split that way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

Site = tuple[int, ...]


class FrameSplit(NamedTuple):
    """A site split into its longitudinal coordinate and transverse block."""

    t: int
    y: tuple[int, ...]


def unit_steps(d: int) -> list[Site]:
    """The 2d nearest-neighbour displacements, in a fixed canonical order.

    Axis 0 first, positive direction before negative.  Enumeration and
    sampling code relies on this order being stable.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    steps: list[Site] = []
    for axis in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[axis] = sign
            steps.append(tuple(e))
    return steps


def self_avoiding(walks: np.ndarray) -> np.ndarray:
    """Which rows of a (walks, sites, d) stack are self-avoiding walks:
    unit steps, and no site twice."""
    m = walks.shape[1]
    unit = (np.abs(np.diff(walks, axis=1)).sum(axis=2) == 1).all(axis=1)
    # with unit steps a site lies within m - 1 of the first on each axis,
    # so its offset is one digit base 2m + 1
    digits = (2 * m + 1) ** np.arange(walks.shape[2])
    codes = (walks.astype(np.int64) - walks[:, :1] + m) @ digits
    codes.sort(axis=1)
    return unit & (codes[:, 1:] != codes[:, :-1]).all(axis=1)
