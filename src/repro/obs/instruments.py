"""Standard metric emission — the shared vocabulary of the repo.

The engines and the trial runner all report through these helpers so
the metric names stay consistent across call sites (the catalogue is
documented in ``docs/observability.md``).  Every helper checks
:attr:`Telemetry.enabled` once and returns immediately when the
process-wide registry is the null default, so instrumented code pays a
single function call per *run*, never per interaction.

Naming scheme::

    engine.<name>.runs                  counter, completed executions
    engine.<name>.interactions          counter, total interactions
    engine.<name>.effective_interactions counter
    engine.<name>.converged             counter
    engine.<name>.interactions_hist     histogram, per-run totals
    engine.<name>.elapsed_seconds       histogram, per-run wall time
    engine.kernel.compiles              counter, compiled-kernel builds
    engine.kernel.compile_seconds       histogram, per-build wall time
    runner.calls / runner.trials        counters
    runner.interactions / runner.effective_interactions  counters
    runner.cache.hits / runner.cache.misses              counters
    runner.trial_interactions           histogram, per-trial totals
    runner.point_seconds                histogram, per-call wall time
    runner.chunk_seconds                histogram, per-chunk wall time
    results.shards.written              counter, columnar shards flushed
    results.shards.bytes                counter, shard bytes on disk
    results.shards.scan_rows            counter, rows streamed by scans

The derived *effective ratio* (effective / total interactions) is
computed by the renderers from the counter pair rather than stored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (engine imports us)
    from ..engine.base import SimulationResult
    from ..engine.runner import TrialSet

__all__ = [
    "record_simulation",
    "record_kernel_compile",
    "record_trialset",
    "record_cache_lookup",
    "record_chunk_seconds",
    "record_shard_write",
    "record_scan_rows",
]


def record_simulation(result: "SimulationResult") -> None:
    """Emit the standard per-run metrics for one finished execution."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    prefix = f"engine.{result.engine}"
    telemetry.counter(f"{prefix}.runs").inc()
    telemetry.counter(f"{prefix}.interactions").inc(result.interactions)
    telemetry.counter(f"{prefix}.effective_interactions").inc(
        result.effective_interactions
    )
    if result.converged:
        telemetry.counter(f"{prefix}.converged").inc()
    telemetry.histogram(f"{prefix}.interactions_hist").record(result.interactions)
    telemetry.histogram(f"{prefix}.elapsed_seconds").record(result.elapsed)


def record_kernel_compile(backend: str, seconds: float) -> None:
    """Record one compiled-kernel build (C toolchain).

    The ``python`` backend has no kernels and emits nothing; the
    counter/histogram pair therefore measures exactly the one-time
    native-tier warm-up cost a process pays.
    """
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.counter("engine.kernel.compiles").inc()
    telemetry.gauge("engine.kernel.last_backend_is_native").set(
        0.0 if backend == "python" else 1.0
    )
    telemetry.histogram("engine.kernel.compile_seconds").record(seconds)


def record_trialset(ts: "TrialSet", *, cached: bool, elapsed: float) -> None:
    """Emit the runner-level metrics for one :func:`run_trials` call."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.counter("runner.calls").inc()
    telemetry.counter("runner.trials").inc(ts.trials)
    interactions = int(ts.interactions.sum())
    effective = int(ts.effective_interactions.sum())
    telemetry.counter("runner.interactions").inc(interactions)
    telemetry.counter("runner.effective_interactions").inc(effective)
    telemetry.gauge("runner.last_effective_ratio").set(
        effective / interactions if interactions else 0.0
    )
    hist = telemetry.histogram("runner.trial_interactions")
    for value in ts.interactions.tolist():
        hist.record(value)
    if not cached:
        telemetry.histogram("runner.point_seconds").record(elapsed)


def record_cache_lookup(hit: bool) -> None:
    """Count one trial-cache consultation by the runner."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.counter("runner.cache.hits" if hit else "runner.cache.misses").inc()


def record_chunk_seconds(elapsed: float) -> None:
    """Record one trial chunk's wall time (serial and pooled paths)."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.histogram("runner.chunk_seconds").record(elapsed)


def record_shard_write(*, rows: int, size: int) -> None:
    """Count one columnar shard flush (rows and on-disk bytes)."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.counter("results.shards.written").inc()
    telemetry.counter("results.shards.bytes").inc(size)
    telemetry.counter("results.shards.rows").inc(rows)


def record_scan_rows(rows: int) -> None:
    """Count rows streamed out of a columnar store by a scan."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.counter("results.shards.scan_rows").inc(rows)
