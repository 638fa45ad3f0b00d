"""Benchmark: the compiled kernels against the pure-Python loops.

``count`` and ``batch`` (and their ``count-jit``/``batch-jit`` names)
run their loops as compiled kernels whenever a native backend exists.
This benchmark times them against the same engines forced onto their
Python loops with ``REPRO_KERNEL=python``, at two working points:

* Figure 3's k = 3, n = 300, and
* Figure 6's k = 6, n = 960 (the heavy regime; the floor of 2x is
  asserted here whenever a native backend is available),

plus the batch pair-draw/apply loop at k = 3, n = 120.

Besides the pytest-benchmark stats, the measured throughput is written
to ``BENCH_ensemble.json`` at the repository root — together with the
provenance (git revision, CPU count, NumPy version, active kernel
backend) of the machine that produced it.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.rng import spawn_seed_sequences
from repro.engine import (
    CountBasedEngine,
    JitBatchEngine,
    JitCountEngine,
    get_kernels,
    reset_kernels,
)
from repro.engine.kernels import KERNEL_ENV
from repro.protocols import uniform_k_partition

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ensemble.json"
#: Acceptance floor for the compiled jump chain over the Python tier at
#: the heavy point, asserted only when a native backend is active
#: (measured >= 30x with the C backend on the reference machine).
MIN_KERNEL_SPEEDUP = 2.0


def _provenance() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=RESULT_PATH.parent,
            check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 — provenance is best effort
        rev = "unknown"
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "kernel_backend": get_kernels().backend,
    }


@contextmanager
def _python_loops():
    """Run the enclosed sessions on their pure-Python loops."""
    saved = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = "python"
    reset_kernels()
    try:
        yield
    finally:
        if saved is None:
            del os.environ[KERNEL_ENV]
        else:
            os.environ[KERNEL_ENV] = saved
        reset_kernels()


def _record(point: str, payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    data[point] = payload
    data["provenance"] = _provenance()
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _seconds_per_trial(engine, protocol, n, *, seed, trials) -> float:
    seeds = spawn_seed_sequences(seed, trials)
    engine.run(protocol, n, seed=seeds[0])  # warm caches / kernel build
    start = time.perf_counter()
    for s in seeds:
        result = engine.run(protocol, n, seed=s)
        assert result.converged
    return (time.perf_counter() - start) / trials


@pytest.mark.parametrize(
    ("k", "n", "trials"),
    [(3, 300, 20), (6, 960, 5)],
    ids=["fig3-k3-n300", "fig6-k6-n960"],
)
def test_kernel_tier_vs_count(k, n, trials):
    """Compiled jump chain (``count-jit``) against the Python loop."""
    protocol = uniform_k_partition(k)
    protocol.compiled
    with _python_loops():
        python_per_trial = _seconds_per_trial(
            CountBasedEngine(), protocol, n, seed=2026, trials=trials
        )
    kernels = get_kernels()
    jit_per_trial = _seconds_per_trial(
        JitCountEngine(), protocol, n, seed=2026, trials=trials
    )
    speedup = python_per_trial / jit_per_trial
    _record(
        f"kernel_k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "trials": trials,
            "backend": kernels.backend,
            "compile_seconds": round(kernels.compile_seconds, 3),
            "count_seconds_per_trial": round(python_per_trial, 6),
            "count_jit_seconds_per_trial": round(jit_per_trial, 6),
            "speedup": round(speedup, 2),
        },
    )
    if k == 6 and kernels.native:  # the acceptance point for the kernel tier
        assert speedup >= MIN_KERNEL_SPEEDUP


def test_batch_kernel_tier(k=3, n=120):
    """Compiled pair-draw/apply loop (``batch-jit``) against the Python
    batch loop."""
    from repro.engine import BatchEngine

    protocol = uniform_k_partition(k)
    protocol.compiled
    budget = 2_000_000
    seeds = spawn_seed_sequences(2026, 3)

    def per_trial(engine) -> float:
        engine.run(protocol, n, seed=seeds[0], max_interactions=budget)
        start = time.perf_counter()
        for s in seeds:
            engine.run(protocol, n, seed=s, max_interactions=budget)
        return (time.perf_counter() - start) / len(seeds)

    with _python_loops():
        timings = {"batch": per_trial(BatchEngine())}
    kernels = get_kernels()
    timings["batch-jit"] = per_trial(JitBatchEngine())
    _record(
        f"batch_kernel_k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "backend": kernels.backend,
            "batch_seconds_per_trial": round(timings["batch"], 6),
            "batch_jit_seconds_per_trial": round(timings["batch-jit"], 6),
            "speedup": round(timings["batch"] / timings["batch-jit"], 2),
        },
    )
