"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import (
    AgentBasedEngine,
    BatchEngine,
    CountBasedEngine,
    JitBatchEngine,
    JitCountEngine,
)
from repro.protocols import (
    approximate_k_partition,
    approximate_majority,
    leader_election,
    uniform_bipartition,
    uniform_k_partition,
)


@pytest.fixture(scope="session")
def kpartition3():
    """The paper's protocol for k = 3 (smallest case with M and D)."""
    return uniform_k_partition(3)


@pytest.fixture(scope="session")
def kpartition4():
    return uniform_k_partition(4)


@pytest.fixture(scope="session")
def kpartition6():
    """k = 6 — the size used by the paper's Figure 1/2 walk-throughs."""
    return uniform_k_partition(6)


@pytest.fixture(scope="session")
def bipartition():
    return uniform_bipartition()


@pytest.fixture(scope="session")
def approx4():
    return approximate_k_partition(4)


@pytest.fixture(scope="session")
def leader():
    return leader_election()


@pytest.fixture(scope="session")
def majority():
    return approximate_majority()


@pytest.fixture(
    params=[
        "agent",
        "batch",
        "count",
        "count-jit",
        "batch-jit",
    ]
)
def any_engine(request):
    """Parametrizes a test over all engines."""
    return {
        "agent": AgentBasedEngine(),
        "batch": BatchEngine(),
        "count": CountBasedEngine(),
        "count-jit": JitCountEngine(),
        "batch-jit": JitBatchEngine(),
    }[request.param]
