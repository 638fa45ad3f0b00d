"""The ``count-jit`` and ``batch-jit`` engine names.

``count`` and ``batch`` run on the compiled kernels of
:mod:`repro.engine.kernels` whenever a native backend exists and the
run allows it (see :func:`~repro.engine.kernels.session_kernels`), so
these two engines are the same engines under their historical names.
Records, JobSpec digests and trial caches that name them stay valid.
"""

from __future__ import annotations

from .batch import BatchEngine
from .count_based import CountBasedEngine

__all__ = ["JitCountEngine", "JitBatchEngine"]


class JitCountEngine(CountBasedEngine):
    """:class:`CountBasedEngine` under the name ``count-jit``."""

    name = "count-jit"


class JitBatchEngine(BatchEngine):
    """:class:`BatchEngine` under the name ``batch-jit``."""

    name = "batch-jit"
