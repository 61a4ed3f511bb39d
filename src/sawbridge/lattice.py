"""Hypercubic lattice geometry.

A walk is a sequence of sites in Z^d, each site a d-tuple of ints.  The
first coordinate plays a distinguished role throughout the package: walks
are measured along axis 0 ("longitudinal"), and the remaining d-1
coordinates form the transverse block, and a FrameSplit holds a
displacement split that way.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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


def origin(d: int) -> Site:
    return (0,) * d


def manhattan(a: Site, b: Site) -> int:
    return sum(abs(p - q) for p, q in zip(a, b))


def site_add(a: Site, b: Site) -> Site:
    return tuple(p + q for p, q in zip(a, b))


def is_self_avoiding(sites: Sequence[Site]) -> bool:
    """True iff consecutive sites are nearest neighbours and no site repeats.

    A single site is trivially self-avoiding.  Raises on an empty sequence
    because there is no zero-site walk.
    """
    if len(sites) == 0:
        raise ValueError("a walk has at least one site")
    for a, b in zip(sites, sites[1:]):
        if manhattan(a, b) != 1:
            return False
    return len(set(sites)) == len(sites)


def require_walk(sites: Sequence[Site]) -> None:
    """Raise ValueError unless `sites` is a valid self-avoiding walk."""
    if not is_self_avoiding(sites):
        raise ValueError("site sequence is not a self-avoiding walk")
    d = len(sites[0])
    if any(len(s) != d for s in sites):
        raise ValueError("sites have inconsistent dimension")
