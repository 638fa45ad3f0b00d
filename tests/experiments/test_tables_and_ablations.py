"""Tests for the state table, uniformity gap, and engine ablation."""

from __future__ import annotations

import pytest

from repro.experiments.engine_ablation import (
    QUICK_PARAMS as ABL_QUICK,
    render_engine_ablation,
    run_engine_ablation,
)
from repro.experiments.state_table import (
    QUICK_PARAMS as ST_QUICK,
    render_state_table,
    run_state_table,
)
from repro.experiments.uniformity_gap import (
    QUICK_PARAMS as GAP_QUICK,
    render_uniformity_gap,
    run_uniformity_gap,
)


class TestStateTable:
    def test_all_formulas_verified(self):
        table = run_state_table(**ST_QUICK)
        assert all(row["formulas_verified"] for row in table.rows)

    def test_full_range(self):
        table = run_state_table(ks=tuple(range(2, 11)))
        assert len(table) == 9
        for row in table.rows:
            assert row["proposed_3k_minus_2"] == 3 * row["k"] - 2
            assert row["lower_bound"] == row["k"]

    def test_repeated_only_for_powers_of_two(self):
        table = run_state_table(ks=(4, 6, 8))
        by_k = {row["k"]: row for row in table.rows}
        assert by_k[4]["repeated_bipartition"] == 10
        assert by_k[6]["repeated_bipartition"] is None
        assert by_k[8]["repeated_bipartition"] == 22

    def test_render(self):
        out = render_state_table(run_state_table(ks=(2, 3)))
        assert "State complexity" in out


class TestUniformityGap:
    @pytest.fixture(scope="class")
    def table(self):
        return run_uniformity_gap(**GAP_QUICK, seed=1)

    def test_protocol_coverage(self, table):
        protos = {row["protocol"] for row in table.rows}
        # k = 4 is a power of two, so all three families appear.
        assert protos == {
            "uniform-k-partition",
            "approx-k-partition",
            "repeated-bipartition",
        }

    def test_algorithm1_always_uniform(self, table):
        for row in table.where(protocol="uniform-k-partition").rows:
            assert row["max_spread"] <= 1

    def test_approx_baseline_meets_floor(self, table):
        for row in table.where(protocol="approx-k-partition").rows:
            assert row["worst_min_group"] >= row["guarantee_floor"]

    def test_approx_baseline_skews_at_non_power_of_two_k(self):
        # k = 4's interval tree is balanced, so the skew shows at k = 3
        # where [1,3] splits into [1,2] + [3,3] and group 3 soaks up
        # about half the population.
        table = run_uniformity_gap(k=3, n_values=(60,), trials=10, seed=3)
        row = table.where(protocol="approx-k-partition").rows[0]
        assert row["mean_spread"] > 1.0

    def test_render(self, table):
        assert "Uniformity gap" in render_uniformity_gap(table)


class TestEngineAblation:
    @pytest.fixture(scope="class")
    def table(self):
        return run_engine_ablation(**ABL_QUICK, seed=2)

    def test_engine_coverage(self, table):
        engines = {row["engine"] for row in table.rows}
        assert engines == {"agent", "batch", "count"}

    def test_agent_batch_exact_agreement(self, table):
        # Same seeds: the agent and batch rows must report identical
        # interaction means (they run the same executions).
        for k, n in {(row["k"], row["n"]) for row in table.rows}:
            sub = table.where(k=k, n=n)
            means = {row["engine"]: row["mean_interactions"] for row in sub.rows}
            assert means["agent"] == means["batch"]

    def test_count_engine_effective_fraction_below_one(self, table):
        for row in table.where(engine="count").rows:
            assert 0 < row["effective_fraction"] < 1

    def test_render(self, table):
        out = render_engine_ablation(table)
        assert "Engine ablation" in out
