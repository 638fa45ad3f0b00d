"""Engine contract tests, parametrized over every engine.

Uses the shared ``any_engine`` fixture so each guarantee is asserted
for every registered engine alike.
"""

from __future__ import annotations

import numpy as np

from repro.protocols import uniform_k_partition

PROTO = uniform_k_partition(3)


class TestContract:
    def test_converges_to_uniform_partition(self, any_engine):
        r = any_engine.run(PROTO, 15, seed=0)
        assert r.converged
        assert sorted(r.group_sizes.tolist()) == [5, 5, 5]

    def test_population_conserved(self, any_engine):
        r = any_engine.run(PROTO, 17, seed=1)
        assert int(r.final_counts.sum()) == 17

    def test_reproducible_per_seed(self, any_engine):
        a = any_engine.run(PROTO, 14, seed=2)
        b = any_engine.run(PROTO, 14, seed=2)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_budget_is_hard(self, any_engine):
        r = any_engine.run(PROTO, 40, seed=3, max_interactions=20)
        assert r.interactions <= 20
        assert not r.converged

    def test_milestones_sorted_and_complete(self, any_engine):
        r = any_engine.run(PROTO, 12, seed=4, track_state="g3")
        assert len(r.tracked_milestones) == 4
        assert r.tracked_milestones == sorted(r.tracked_milestones)
        assert all(1 <= m <= r.interactions for m in r.tracked_milestones)

    def test_effective_never_exceeds_total(self, any_engine):
        r = any_engine.run(PROTO, 20, seed=5)
        assert 0 < r.effective_interactions <= r.interactions

    def test_final_counts_satisfy_lemma1(self, any_engine):
        r = any_engine.run(PROTO, 19, seed=6)
        assert PROTO.satisfies_lemma1(r.final_counts)

    def test_engine_name_reported(self, any_engine):
        r = any_engine.run(PROTO, 9, seed=7)
        assert r.engine == any_engine.name
