"""Multi-trial experiment runner.

The paper reports averages over 100 independent executions per
parameter point.  :func:`run_trials` reproduces that methodology with
a strict seeding discipline: per-trial generators are spawned from one
master ``SeedSequence``, so results are reproducible trial-by-trial
and independent of execution order.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence
from typing import Protocol as TypingProtocol

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike, spawn_seed_sequences
from ..obs.instruments import (
    record_cache_lookup,
    record_chunk_seconds,
    record_trialset,
)
from ..obs.trace import active_trace_writer
from ..scheduling.spec import SchedulerSpec
from .base import Engine, SimulationResult
from .registry import engine_for_scheduler

__all__ = [
    "TrialSet",
    "TrialCache",
    "InMemoryTrialCache",
    "run_trials",
    "finalize_trials",
    "trial_fingerprint",
    "use_trial_cache",
    "active_trial_cache",
]

#: Called after every completed trial with ``(done, total)`` where
#: ``done`` counts finished trials (1-based).  Worker pools report
#: whole chunks at once.
ProgressCallback = Callable[[int, int], None]


@dataclass(slots=True)
class TrialSet:
    """Results of repeated independent executions at one parameter point."""

    protocol: str
    n: int
    engine: str
    results: list[SimulationResult]

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def interactions(self) -> np.ndarray:
        """Per-trial total interaction counts."""
        return np.asarray([r.interactions for r in self.results], dtype=np.int64)

    @property
    def effective_interactions(self) -> np.ndarray:
        return np.asarray(
            [r.effective_interactions for r in self.results], dtype=np.int64
        )

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.results)

    @property
    def mean_interactions(self) -> float:
        """The paper's reported statistic: average interactions to stability."""
        return float(self.interactions.mean())

    @property
    def std_interactions(self) -> float:
        return float(self.interactions.std(ddof=1)) if self.trials > 1 else 0.0

    @property
    def sem_interactions(self) -> float:
        """Standard error of the mean."""
        return self.std_interactions / np.sqrt(self.trials) if self.trials > 1 else 0.0

    def milestone_lists(self) -> list[list[int]]:
        """Tracked-state milestones of every trial (for Figure 4)."""
        return [r.tracked_milestones for r in self.results]

    def summary(self) -> str:
        return (
            f"{self.protocol} n={self.n} [{self.engine} x{self.trials}]: "
            f"mean={self.mean_interactions:.1f} "
            f"std={self.std_interactions:.1f} "
            f"range=[{int(self.interactions.min())}, {int(self.interactions.max())}]"
        )

    # ------------------------------------------------------------------
    # Serialization (campaign cache / job store)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """JSON-safe summary statistics (the per-point figures report)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "engine": self.engine,
            "trials": self.trials,
            "mean_interactions": self.mean_interactions,
            "std_interactions": self.std_interactions,
            "sem_interactions": self.sem_interactions,
            "min_interactions": int(self.interactions.min()),
            "max_interactions": int(self.interactions.max()),
            "mean_effective": float(self.effective_interactions.mean()),
            "all_converged": self.all_converged,
        }

    def to_record(self) -> dict[str, object]:
        """Lossless JSON-safe serialization of every trial.

        ``TrialSet.from_record(ts.to_record())`` reconstructs a trial
        set whose arrays and statistics are bit-identical to the
        original — the contract the campaign cache relies on.
        """
        return {
            "protocol": self.protocol,
            "n": self.n,
            "engine": self.engine,
            "results": [r.to_record() for r in self.results],
        }

    @classmethod
    def from_record(cls, record: dict[str, object]) -> "TrialSet":
        """Inverse of :meth:`to_record`."""
        results = [SimulationResult.from_record(r) for r in record["results"]]
        return cls(
            protocol=record["protocol"],
            n=record["n"],
            engine=record["engine"],
            results=results,
        )


class TrialCache(TypingProtocol):
    """Key-value interface :func:`run_trials` consults before running.

    Keys are :func:`trial_fingerprint` digests; values are
    :meth:`TrialSet.to_record` dicts.  Implementations must be safe to
    call from the thread that invoked :func:`run_trials` only.
    """

    def get(self, key: str) -> dict | None: ...  # pragma: no cover

    def put(self, key: str, record: dict) -> None: ...  # pragma: no cover


class InMemoryTrialCache:
    """Dict-backed :class:`TrialCache` with hit/miss counters."""

    def __init__(self) -> None:
        self._data: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> dict | None:
        record = self._data.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        self._data[key] = record


#: Process-wide cache installed by :func:`use_trial_cache`; ``None``
#: disables caching for callers that do not pass ``cache=`` explicitly.
_ACTIVE_CACHE: TrialCache | None = None


def active_trial_cache() -> TrialCache | None:
    """The cache currently installed by :func:`use_trial_cache`."""
    return _ACTIVE_CACHE


@contextmanager
def use_trial_cache(cache: TrialCache | None) -> Iterator[TrialCache | None]:
    """Install ``cache`` as the process-wide default for ``run_trials``.

    Every :func:`run_trials` call inside the ``with`` block that does
    not pass its own ``cache=`` consults (and populates) this one.  The
    experiment CLI uses it to make whole-figure sweeps incremental
    without threading a cache argument through every experiment module.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous


def _protocol_fingerprint(protocol: Protocol) -> str:
    """Content hash of a protocol's full behaviour description.

    Built from :meth:`Protocol.describe`, which renders the state
    space, group map, and every transition rule — two protocols with
    the same digest are behaviourally identical regardless of how they
    were constructed (registry, composition, or hand-built).
    """
    return hashlib.sha256(protocol.describe().encode()).hexdigest()


def trial_fingerprint(
    protocol: Protocol,
    n: int | None,
    *,
    trials: int,
    engine: str,
    seed: SeedLike,
    initial_counts: np.ndarray | None = None,
    max_interactions: int | None = None,
    track_state: str | int | None = None,
    scheduler: str | None = None,
) -> str | None:
    """Digest identifying one :func:`run_trials` call's full input.

    Returns ``None`` when the call is not cacheable (a ``Generator`` or
    ``SeedSequence`` seed has hidden stream state that a digest cannot
    capture).  Everything else — protocol behaviour, population,
    trial count, engine, integer seed, budget, tracking, scheduler — is
    hashed into one hex digest, so cache hits are exact-input matches.
    The ``scheduler`` key enters the payload only for non-uniform
    schedulers: every digest computed before the scheduler dimension
    existed stays byte-identical.
    """
    if not (seed is None or isinstance(seed, int)):
        return None
    payload = {
        "protocol": _protocol_fingerprint(protocol),
        "n": n,
        "trials": trials,
        "engine": engine,
        "seed": seed,
        "initial_counts": (
            None if initial_counts is None else [int(c) for c in initial_counts]
        ),
        "max_interactions": max_interactions,
        "track_state": track_state,
    }
    if scheduler is not None and scheduler != "uniform":
        payload["scheduler"] = scheduler
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_trials(
    protocol: Protocol,
    n: int | None = None,
    *,
    trials: int = 100,
    engine: Engine | str | None = None,
    seed: SeedLike = 0,
    initial_counts: Sequence[int] | np.ndarray | None = None,
    max_interactions: int | None = None,
    track_state: str | int | None = None,
    scheduler: str | SchedulerSpec | None = None,
    require_convergence: bool = True,
    progress: ProgressCallback | None = None,
    workers: int = 1,
    cache: TrialCache | None = None,
) -> TrialSet:
    """Run ``trials`` independent executions and collect the results.

    Parameters mirror :meth:`Engine.run`; additionally:

    trials:
        Number of independent executions (the paper uses 100).
    engine:
        An :class:`Engine` instance, a registered engine name (see
        :func:`~repro.engine.registry.available_engines`), or None for
        the default count-based engine.
    scheduler:
        Scheduler name or :class:`~repro.scheduling.spec.SchedulerSpec`
        (``None``/``"uniform"`` = the paper's uniform scheduler).
        Non-uniform schedulers constrain the engine: ``graph:*`` runs
        on the ``"graph"`` engine (default) or ``"agent"``;
        ``roundrobin`` requires ``"agent"``.  See
        :func:`~repro.engine.registry.engine_for_scheduler`.
    seed:
        Master seed; per-trial streams are spawned from it.
    require_convergence:
        Raise :class:`SimulationError` if any trial failed to stabilize
        within its budget (default True — averaging censored counts
        silently would bias the reproduction).
    progress:
        Optional callback ``(done, total)`` fired as trials complete
        (``done`` is the 1-based count of finished trials).  Worker
        pools report whole chunks at once.
    cache:
        Optional :class:`TrialCache`.  When the call's
        :func:`trial_fingerprint` is already present, the stored record
        is returned immediately — bit-identical to re-running — and no
        simulation happens; otherwise the fresh result is stored under
        that key on the way out.  ``None`` falls back to the cache
        installed by :func:`use_trial_cache` (if any).
    workers:
        Number of worker processes.  ``1`` (default) runs serially in
        this process; ``> 1`` splits the trials into ``workers``
        contiguous chunks of ``ceil(trials / workers)`` and fans the
        chunks out over a process pool (one submission per worker, not
        per trial, so pickling overhead is paid per chunk).  Because
        per-trial seeds are spawned up front, results are
        bit-identical to the serial run regardless of worker count or
        completion order.  Requires the engine and protocol to be
        picklable (all engines and shipped protocols are; agent-based
        engines with lambda scheduler factories are not).
    """
    if trials < 1:
        raise SimulationError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise SimulationError(f"workers must be positive, got {workers}")
    spec = None if scheduler is None else SchedulerSpec.parse(scheduler)
    engine = engine_for_scheduler(engine, spec)
    scheduler_name = None if spec is None or spec.is_uniform else spec.name
    init = None if initial_counts is None else np.asarray(initial_counts, dtype=np.int64)
    t_start = time.perf_counter()

    if cache is None:
        cache = _ACTIVE_CACHE
    key: str | None = None
    if cache is not None:
        key = trial_fingerprint(
            protocol,
            n,
            trials=trials,
            engine=engine.name,
            seed=seed,
            initial_counts=init,
            max_interactions=max_interactions,
            track_state=track_state,
            scheduler=scheduler_name,
        )
        if key is not None:
            record = cache.get(key)
            record_cache_lookup(hit=record is not None)
            if record is not None:
                ts = TrialSet.from_record(record)
                # Convergence is enforced *before* any completion is
                # reported: a cached record of a failed point must raise
                # exactly like re-running it would, without a progress
                # callback first claiming the point finished cleanly.
                _enforce_convergence(ts.results, protocol, require_convergence)
                _conformance_check(protocol, ts.results)
                if progress is not None:
                    progress(trials, trials)
                _report_trialset(ts, seed=seed, cached=True, elapsed=0.0)
                return ts

    seeds = spawn_seed_sequences(seed, trials)

    if workers == 1:
        results = _run_chunk(
            engine, protocol, n, seeds, init, max_interactions, track_state,
            progress=progress, total=trials,
        )
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-trials // workers)  # ceil division
        spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_chunk, engine, protocol, n, seeds[lo:hi], init,
                    max_interactions, track_state,
                )
                for lo, hi in spans
            ]
            results = []
            for (lo, hi), future in zip(spans, futures):
                results.extend(future.result())
                if progress is not None:
                    progress(hi, trials)

    ts = finalize_trials(
        protocol,
        engine.name,
        results,
        seed=seed,
        require_convergence=require_convergence,
        elapsed=time.perf_counter() - t_start,
    )
    if cache is not None and key is not None:
        cache.put(key, ts.to_record())
    return ts


def finalize_trials(
    protocol: Protocol,
    engine_name: str,
    results: list[SimulationResult],
    *,
    seed: SeedLike,
    require_convergence: bool = True,
    elapsed: float = 0.0,
) -> TrialSet:
    """Assemble, validate, and report a completed set of trial results.

    The shared tail of every multi-trial execution path: convergence
    enforcement, conformance checking, :class:`TrialSet` assembly, and
    observability reporting happen here exactly as :func:`run_trials`
    performs them — so alternative drivers (the campaign executor's
    resumable session loop) produce trial sets indistinguishable from a
    straight ``run_trials`` call with the same inputs.
    """
    if not results:
        raise SimulationError("finalize_trials needs at least one result")
    _enforce_convergence(results, protocol, require_convergence)
    _conformance_check(protocol, results)
    ts = TrialSet(
        protocol=protocol.name,
        n=results[0].n,
        engine=engine_name,
        results=results,
    )
    _report_trialset(ts, seed=seed, cached=False, elapsed=elapsed)
    return ts


def _report_trialset(
    ts: TrialSet, *, seed: SeedLike, cached: bool, elapsed: float
) -> None:
    """Emit runner metrics and the trace record for one completed call.

    No-ops entirely when telemetry is disabled and no trace writer is
    installed — observability never alters results, only reports them.
    """
    record_trialset(ts, cached=cached, elapsed=elapsed)
    writer = active_trace_writer()
    if writer is not None:
        writer.write_trial_set(ts, seed=seed, cached=cached, elapsed=elapsed)


def _conformance_check(
    protocol: Protocol, results: Sequence[SimulationResult]
) -> None:
    """Check final configurations when a conformance runtime is installed.

    The import is deferred so the runner (which every engine path pulls
    in) does not import the conformance subsystem — and through it the
    protocol registry — unless :func:`~repro.conform.runtime.use_conformance`
    is actually in play somewhere in the process.
    """
    import sys

    runtime_mod = sys.modules.get("repro.conform.runtime")
    if runtime_mod is None or runtime_mod.active_conformance() is None:
        return
    for result in results:
        runtime_mod.check_result(protocol, result)


def _enforce_convergence(
    results: Sequence[SimulationResult],
    protocol: Protocol,
    require_convergence: bool,
) -> None:
    if not require_convergence:
        return
    for t, result in enumerate(results):
        if not result.converged:
            raise SimulationError(
                f"trial {t} of {protocol.name} (n={result.n}) did not stabilize "
                f"within {result.interactions} interactions"
            )


def _run_chunk(
    engine: Engine,
    protocol: Protocol,
    n: int | None,
    seeds: Sequence[np.random.SeedSequence],
    initial_counts: np.ndarray | None,
    max_interactions: int | None,
    track_state: str | int | None,
    progress: ProgressCallback | None = None,
    total: int | None = None,
) -> list[SimulationResult]:
    """A contiguous run of trials — module-level so pools can pickle it.

    One independent run per seed.  ``progress`` is only wired on the
    in-process path (callbacks do not cross the pickle boundary);
    pooled runs report per chunk instead.
    """
    total = total if total is not None else len(seeds)
    t0 = time.perf_counter()
    results = []
    for s in seeds:
        results.append(
            engine.run(
                protocol,
                n,
                seed=s,
                initial_counts=initial_counts,
                max_interactions=max_interactions,
                track_state=track_state,
            )
        )
        if progress is not None:
            progress(len(results), total)
    record_chunk_seconds(time.perf_counter() - t0)
    return results
