"""Benchmark: the three engines on the same workload (ablation).

Measures raw engine throughput on a fixed (k, n) instance.  This is
the quantitative backing for DESIGN.md's claim that the count-based
engine's null skipping is what makes the paper's Figure 6 regime
tractable: the count engine's time per run shrinks relative to the
agent engines as n grows (the effective fraction drops).
"""

from __future__ import annotations

import pytest

from repro.engine import AgentBasedEngine, BatchEngine, CountBasedEngine
from repro.protocols import uniform_k_partition

PROTOCOL = uniform_k_partition(4)
N = 240


@pytest.mark.parametrize(
    "engine",
    [AgentBasedEngine(), BatchEngine(), CountBasedEngine()],
    ids=["agent", "batch", "count"],
)
def test_engine_throughput(benchmark, engine):
    # Consume a seed per round so rounds are i.i.d. executions.
    state = {"seed": 0}

    def run_once():
        state["seed"] += 1
        return engine.run(PROTOCOL, N, seed=state["seed"])

    result = benchmark(run_once)
    assert result.converged
    assert result.group_sizes.tolist() == [60, 60, 60, 60]


def test_count_engine_large_instance(benchmark):
    """The Figure 6 working point: n = 960, k = 6 in a single run."""
    proto = uniform_k_partition(6)
    state = {"seed": 100}

    def run_once():
        state["seed"] += 1
        return CountBasedEngine().run(proto, 960, seed=state["seed"])

    result = benchmark(run_once)
    assert result.converged
    # Null skipping is doing the lifting: most interactions are skipped.
    assert result.effective_interactions < result.interactions / 10
