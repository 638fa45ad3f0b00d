"""Tests for the --conform runtime hook into run_trials."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import InvariantViolation
from repro.conform import (
    active_conformance,
    check_result,
    use_conformance,
)
from repro.conform.runtime import ConformanceRuntime
from repro.engine import SimulationResult, run_trials
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


def _result(proto, counts, n):
    counts = np.asarray(counts, dtype=np.int64)
    return SimulationResult(
        protocol=proto.name,
        n=n,
        engine="count",
        interactions=10,
        effective_interactions=5,
        converged=True,
        silent=False,
        final_counts=counts,
        group_sizes=proto.group_sizes(counts),
    )


class TestContextManager:
    def test_installs_and_restores(self):
        assert active_conformance() is None
        with use_conformance() as rt:
            assert active_conformance() is rt
            assert rt.strict
        assert active_conformance() is None

    def test_nesting_restores_outer(self):
        with use_conformance() as outer:
            with use_conformance(strict=False) as inner:
                assert active_conformance() is inner
            assert active_conformance() is outer

    def test_explicit_runtime_reused(self):
        rt = ConformanceRuntime(strict=False)
        with use_conformance(rt) as got:
            assert got is rt


class TestCheckResult:
    def test_noop_without_runtime(self, proto):
        bad = np.zeros(proto.num_states, dtype=np.int64)
        bad[proto.space.index("g2")] = 4
        assert check_result(proto, _result(proto, bad, 4)) == []

    def test_clean_result_accepted(self, proto):
        with use_conformance() as rt:
            good = proto.initial_counts(9)
            assert check_result(proto, _result(proto, good, 9)) == []
        assert rt.results_checked == 1
        assert rt.violations == []

    def test_strict_mode_raises(self, proto):
        bad = np.zeros(proto.num_states, dtype=np.int64)
        bad[proto.space.index("g2")] = 4
        with use_conformance() as rt:
            with pytest.raises(InvariantViolation):
                check_result(proto, _result(proto, bad, 4))
        assert rt.violations  # recorded before raising

    def test_survey_mode_accumulates(self, proto):
        bad = np.zeros(proto.num_states, dtype=np.int64)
        bad[proto.space.index("g2")] = 4
        with use_conformance(strict=False) as rt:
            problems = check_result(proto, _result(proto, bad, 4))
        assert problems
        assert rt.results_checked == 1
        assert any("staircase" in v for v in rt.violations)
        assert all(proto.name in v for v in rt.violations)

    def test_pack_cached_per_point(self, proto):
        rt = ConformanceRuntime()
        assert rt.pack_for(proto, 8) is rt.pack_for(proto, 8)
        assert rt.pack_for(proto, 8) is not rt.pack_for(proto, 9)


class TestRunTrialsIntegration:
    def test_every_trial_checked(self, proto):
        with use_conformance() as rt:
            ts = run_trials(proto, 15, trials=6, engine="count", seed=0)
        assert len(ts.results) == 6
        assert rt.results_checked == 6
        assert rt.violations == []

    @pytest.mark.parametrize("engine", ["agent", "batch"])
    def test_other_engines_checked(self, proto, engine):
        with use_conformance() as rt:
            run_trials(proto, 12, trials=3, engine=engine, seed=1)
        assert rt.results_checked == 3

    def test_disabled_outside_context(self, proto):
        with use_conformance() as rt:
            run_trials(proto, 12, trials=2, engine="count", seed=0)
        run_trials(proto, 12, trials=2, engine="count", seed=3)
        assert rt.results_checked == 2  # the post-context run was not counted
