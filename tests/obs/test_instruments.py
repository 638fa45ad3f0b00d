"""Integration tests: engines and runner emit the standard metrics."""

from __future__ import annotations

import pytest

from repro import run_trials, uniform_k_partition
from repro.engine import (
    AgentBasedEngine,
    BatchEngine,
    CountBasedEngine,
    JitBatchEngine,
    JitCountEngine,
    get_kernels,
    reset_kernels,
)
from repro.obs import Telemetry, use_telemetry


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


ENGINES = {
    "agent": AgentBasedEngine,
    "batch": BatchEngine,
    "count": CountBasedEngine,
    "count-jit": JitCountEngine,
    "batch-jit": JitBatchEngine,
}


class TestEngineEmission:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_run_emits_standard_metrics(self, name, proto):
        engine = ENGINES[name]()
        t = Telemetry()
        with use_telemetry(t):
            result = engine.run(proto, 12, seed=50)
        counters = t.snapshot()["counters"]
        prefix = f"engine.{result.engine}"
        assert counters[f"{prefix}.runs"] == 1
        assert counters[f"{prefix}.interactions"] == result.interactions
        assert (
            counters[f"{prefix}.effective_interactions"]
            == result.effective_interactions
        )
        assert counters[f"{prefix}.converged"] == 1
        hists = t.snapshot()["histograms"]
        assert hists[f"{prefix}.interactions_hist"]["count"] == 1
        assert hists[f"{prefix}.elapsed_seconds"]["count"] == 1

    def test_nothing_emitted_when_disabled(self, proto):
        t = Telemetry()
        CountBasedEngine().run(proto, 12, seed=52)  # default null registry
        assert t.snapshot()["counters"] == {}

    def test_kernel_compile_emission(self, proto):
        """A fresh native-kernel build records exactly one compile (the
        pure-Python fallback backend records nothing)."""
        reset_kernels()
        t = Telemetry()
        with use_telemetry(t):
            kernels = get_kernels()
            JitCountEngine().run(proto, 12, seed=57)
        snap = t.snapshot()
        if kernels.native:
            assert snap["counters"]["engine.kernel.compiles"] == 1
            assert snap["histograms"]["engine.kernel.compile_seconds"]["count"] == 1
            assert snap["gauges"]["engine.kernel.last_backend_is_native"] == 1.0
        else:
            assert "engine.kernel.compiles" not in snap["counters"]

class TestRunnerEmission:
    def test_runner_counters_and_ratio(self, proto):
        t = Telemetry()
        with use_telemetry(t):
            ts = run_trials(proto, 12, trials=5, seed=53)
        snap = t.snapshot()
        counters = snap["counters"]
        assert counters["runner.calls"] == 1
        assert counters["runner.trials"] == 5
        assert counters["runner.interactions"] == int(ts.interactions.sum())
        assert (
            counters["runner.effective_interactions"]
            == int(ts.effective_interactions.sum())
        )
        ratio = snap["gauges"]["runner.last_effective_ratio"]
        assert ratio == pytest.approx(
            ts.effective_interactions.sum() / ts.interactions.sum()
        )
        assert snap["histograms"]["runner.trial_interactions"]["count"] == 5
        assert snap["histograms"]["runner.point_seconds"]["count"] == 1
        assert snap["histograms"]["runner.chunk_seconds"]["count"] >= 1

    def test_cache_hit_and_miss_counters(self, proto):
        from repro.engine import InMemoryTrialCache

        t = Telemetry()
        cache = InMemoryTrialCache()
        with use_telemetry(t):
            run_trials(proto, 12, trials=3, seed=54, cache=cache)
            run_trials(proto, 12, trials=3, seed=54, cache=cache)
        counters = t.snapshot()["counters"]
        assert counters["runner.cache.misses"] == 1
        assert counters["runner.cache.hits"] == 1
        # A cache hit spends no simulation time: point_seconds only
        # tracks fresh computations.
        assert t.snapshot()["histograms"]["runner.point_seconds"]["count"] == 1


class TestZeroCostWhenDisabled:
    def test_disabled_path_touches_no_instruments(self, proto):
        """With telemetry disabled the hot path must perform zero
        instrument lookups — the guard is ``telemetry.enabled`` alone."""
        from repro.obs.telemetry import NullTelemetry, use_telemetry as use

        class BoobyTrapped(NullTelemetry):
            def counter(self, name):
                raise AssertionError(f"counter({name!r}) on disabled path")

            def gauge(self, name):
                raise AssertionError(f"gauge({name!r}) on disabled path")

            def histogram(self, name):
                raise AssertionError(f"histogram({name!r}) on disabled path")

        with use(BoobyTrapped()):
            ts = run_trials(proto, 12, trials=4, seed=55)
        assert ts.all_converged

    def test_disabled_path_covers_kernel_and_parallel_tiers(self, proto):
        """The kernel build path (record_kernel_compile) and the pooled
        trial path (``workers > 1``) must also be free on the disabled
        path — including a fresh kernel-backend build."""
        from repro.obs.telemetry import NullTelemetry, use_telemetry as use

        class BoobyTrapped(NullTelemetry):
            def counter(self, name):
                raise AssertionError(f"counter({name!r}) on disabled path")

            def gauge(self, name):
                raise AssertionError(f"gauge({name!r}) on disabled path")

            def histogram(self, name):
                raise AssertionError(f"histogram({name!r}) on disabled path")

        reset_kernels()  # force a kernel build inside the trap
        with use(BoobyTrapped()):
            for engine in ("count-jit", "batch-jit"):
                ts = run_trials(proto, 12, trials=4, seed=55, engine=engine)
                assert ts.all_converged
            ts = run_trials(proto, 12, trials=4, seed=55, workers=2)
            assert ts.all_converged

    def test_disabled_callbacks_unaffected(self, proto):
        # on_effective still fires per effective interaction regardless
        # of telemetry state.
        seen = []
        CountBasedEngine().run(
            proto, 12, seed=56, on_effective=lambda i, c: seen.append(i)
        )
        assert seen
