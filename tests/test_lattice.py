from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sawbridge import lattice


def walk_strategy(d: int, max_steps: int = 12):
    """Build a self-avoiding walk from a step-index list, truncating at the
    first collision, so every drawn value is a valid walk."""

    def build(indices: list[int]) -> list[tuple[int, ...]]:
        steps = lattice.unit_steps(d)
        path = [(0,) * d]
        seen = {path[0]}
        for i in indices:
            nxt = tuple(p + q for p, q in zip(path[-1], steps[i]))
            if nxt in seen:
                break
            seen.add(nxt)
            path.append(nxt)
        return path

    return st.lists(
        st.integers(0, 2 * d - 1), min_size=0, max_size=max_steps
    ).map(build)


def test_unit_steps_canonical_order():
    assert lattice.unit_steps(2) == [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert lattice.unit_steps(3)[:2] == [(1, 0, 0), (-1, 0, 0)]
    assert len(lattice.unit_steps(4)) == 8


def test_unit_steps_rejects_bad_dimension():
    with pytest.raises(ValueError):
        lattice.unit_steps(0)


def is_self_avoiding(path) -> bool:
    return bool(lattice.self_avoiding(np.array([path]))[0])


def test_is_self_avoiding_basics():
    assert is_self_avoiding([(0, 0)])
    assert is_self_avoiding([(0, 0), (1, 0), (1, 1)])
    # revisit
    assert not is_self_avoiding([(0, 0), (1, 0), (0, 0)])
    # non-unit jump
    assert not is_self_avoiding([(0, 0), (2, 0)])


@given(walk_strategy(2))
def test_generated_walks_are_self_avoiding(path):
    assert is_self_avoiding(path)


@given(walk_strategy(3, max_steps=8))
def test_generated_walks_are_self_avoiding_d3(path):
    assert is_self_avoiding(path)


def test_self_avoiding_checks_each_row_of_a_stack():
    walks = np.array([
        [(0, 0), (1, 0), (1, 1)],
        [(0, 0), (1, 0), (0, 0)],  # revisit
        [(0, 0), (2, 0), (2, 1)],  # non-unit jump
    ])
    assert lattice.self_avoiding(walks).tolist() == [True, False, False]
    assert lattice.self_avoiding(walks[:, :1]).all()
