from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from sawbridge import counting, renewal

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def all_table_l10() -> counting.CountTable:
    return counting.enumerate_counts(2, 10, counting.WalkClass.ALL)


@pytest.fixture(scope="session")
def bridge_table_l12() -> counting.CountTable:
    return counting.enumerate_counts(2, 12, counting.WalkClass.BRIDGE)


@pytest.fixture(scope="session")
def irr_table_l12() -> counting.CountTable:
    return counting.enumerate_counts(2, 12, counting.WalkClass.IRREDUCIBLE_BRIDGE)


@pytest.fixture(scope="session")
def irr_table_l13() -> counting.CountTable:
    return counting.enumerate_counts(2, 13, counting.WalkClass.IRREDUCIBLE_BRIDGE)


@pytest.fixture(scope="session")
def step_law_l13(irr_table_l13) -> renewal.StepLaw:
    m_hat = renewal.calibrate_mass(irr_table_l13, beta=1.2)
    return renewal.build_step_law(irr_table_l13, beta=1.2, m_hat=m_hat)


@pytest.fixture
def searched_roots(monkeypatch) -> list[tuple[int, ...]]:
    """The roots of every canonical-walk search, in the order the searches
    start, with the search memo cleared first."""
    roots: list[tuple[int, ...]] = []
    canonical_roots = counting._canonical_roots

    def counted(d, cutoff):
        started = canonical_roots(d, cutoff)
        roots.extend(started)
        return started

    monkeypatch.setattr(counting, "_canonical_roots", counted)
    counting._canonical_counts.cache_clear()
    return roots
