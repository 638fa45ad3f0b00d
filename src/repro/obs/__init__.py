"""Observability: structured tracing, run metrics, and profiling hooks.

Three layers, all off by default and zero-cost when disabled:

* :mod:`repro.obs.telemetry` — a process-wide registry of counters,
  gauges, log-bucketed histograms and span timers (null by default);
* :mod:`repro.obs.instruments` — the standard metric catalogue the
  engines and :func:`~repro.engine.runner.run_trials` emit through;
* :mod:`repro.obs.trace` — append-only JSONL run traces with
  provenance, written per trial by the runner when a writer is
  installed.

Rendering lives in :mod:`repro.obs.summary` and the CLI verbs in
:mod:`repro.obs.cli` (``repro-experiments obs summarize TRACE``);
both are imported lazily so the instrumentation core stays free of
heavyweight dependencies.  See ``docs/observability.md``.
"""

from .instruments import (
    record_cache_lookup,
    record_chunk_seconds,
    record_simulation,
    record_trialset,
)
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from .trace import (
    TRACE_SCHEMA,
    TraceWriter,
    active_trace_writer,
    provenance,
    read_trace,
    use_trace_writer,
)

__all__ = [
    # telemetry core
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "NullTelemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    # metric catalogue
    "record_simulation",
    "record_trialset",
    "record_cache_lookup",
    "record_chunk_seconds",
    # tracing
    "TRACE_SCHEMA",
    "TraceWriter",
    "use_trace_writer",
    "active_trace_writer",
    "read_trace",
    "provenance",
    # rendering (lazy)
    "summarize_trace",
    "render_metrics",
]


def __getattr__(name: str):
    """Lazily expose the renderers without importing the experiment stack.

    :mod:`repro.obs.summary` pulls in the ASCII plotting helpers from
    :mod:`repro.experiments`, which in turn imports the engines; a
    top-level import here would make the engines' own (light)
    ``repro.obs`` import circular.
    """
    if name in ("summarize_trace", "render_metrics"):
        from . import summary

        return getattr(summary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
