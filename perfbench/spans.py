"""Span recorder and the layer wrappers that feed it (traced runs only).

Every span is recorded by benchmark-owned code wrapped around a public
call of one layer: a module-level function (patched wherever a ``repro``
module imported it by name), a public method (patched on its class), or
the ``KernelSet`` returned by the public ``get_kernels``.  Nothing inside
``src/`` is edited and no private attribute is read or written.

Spans stay in memory while the workload runs; :meth:`Recorder.dump`
writes them out once at the end.  A span is ``(id, name, start, end,
parent, job)``: ``parent`` is the id of the enclosing span on the same
thread (or ``None``), ``job`` the campaign job digest or sweep point
that the call served, inherited from the parent when the call itself
does not name one.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

#: Layers whose boundary has no public call to wrap.  The v2 HTTP
#: handlers are private methods, so ``service_v2`` is measured from
#: the daemon's own ``/metrics`` telemetry and from the client instead.
UNMEASURED = ("service_v2 request handling (private handlers; see /metrics)",)


class Recorder:
    """Collects spans and counters from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.fingerprints: set[str] = set()
        #: Cleared after the measured part of a round, so the reference
        #: re-runs of the output checks leave no spans.
        self.active = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][2] if stack else None

    def add(self, name: str, amount: float = 1) -> None:
        if not self.active:
            return
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, *, job=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``job(args, kwargs)`` names the job the call serves;
        ``after(args, kwargs, result)`` records counts from a call that
        returned.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            parent, parent_job, _ = stack[-1] if stack else (None, None, None)
            job_id = job(args, kwargs) if job is not None else None
            if job_id is None:
                job_id = parent_job
            sid = next(rec._ids)
            stack.append((sid, job_id, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append((sid, name, t0, t1, parent, job_id))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write the spans and counters out (once, when the run ends)."""
        keys = ("id", "name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump({
                "spans": [dict(zip(keys, span))
                          for span in sorted(self.spans, key=lambda s: s[2])],
                "counts": dict(self.counts),
                "fingerprints": sorted(self.fingerprints),
            }, fh)

    @classmethod
    def load(cls, path, window: tuple[float, float]) -> "Recorder":
        """A dumped recorder, keeping only spans that start in ``window``.

        ``time.perf_counter`` reads the system-wide monotonic clock, so
        a window taken in another process of the same host applies.
        """
        with open(path) as fh:
            data = json.load(fh)
        rec = cls()
        t0, t1 = window
        rec.spans = [
            (s["id"], s["name"], s["start"], s["end"], s["parent"], s["job"])
            for s in data["spans"] if t0 <= s["start"] <= t1
        ]
        rec.counts.update(data["counts"])
        rec.fingerprints.update(data["fingerprints"])
        return rec

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        Self time is a span's duration minus the durations of its
        children; children run on the parent's thread, so they nest.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for sid, name, t0, t1, _parent, _job in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        return dict(stats)

    def covered_s(self) -> float:
        """Wall time during which at least one span was open."""
        intervals = sorted((s[2], s[3]) for s in self.spans)
        total, end = 0.0, float("-inf")
        for t0, t1 in intervals:
            if t0 > end:
                total += t1 - t0
                end = t1
            elif t1 > end:
                total += t1 - end
                end = t1
        return total


def _patch_function(module_name: str, attr: str, make_wrapper) -> None:
    """Replace a public function in every loaded ``repro`` module.

    Modules that imported the function by name hold their own binding,
    so each one that refers to the same object gets the wrapper too.
    """
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attr, None
        ) is original:
            setattr(module, attr, wrapper)


def _patch_method(cls, attr: str, make_wrapper) -> None:
    setattr(cls, attr, make_wrapper(getattr(cls, attr)))


def install(rec: Recorder) -> None:
    """Wrap the public call at each layer boundary of the benchmark."""
    # Import every module that binds a wrapped name before patching.
    for module in (
        "repro.campaign.service_v2", "repro.campaign.executor",
        "repro.experiments.fig3_vary_n", "repro.experiments.scaling_law",
        "repro.experiments.common", "repro.io.columnar", "repro.engine.jit",
    ):
        importlib.import_module(module)
    from repro.campaign.spec import JobSpec
    from repro.campaign.store import CampaignStore
    from repro.engine.count_based import CountBasedEngine
    from repro.engine.session import EngineSession, protocol_fingerprint
    from repro.io.columnar import ShardWriter

    def digest_arg(args, kwargs):
        return kwargs.get("digest", args[1] if len(args) > 1 else None)

    def spec_digest(args, kwargs):
        return JobSpec.from_dict(args[0]).digest

    def checkpoint_bytes(args, kwargs, _result):
        session = kwargs.get("session")
        rec.add("store.save_checkpoint.bytes",
                len(json.dumps(kwargs["completed"])) + len(session or b""))
        rec.add("store.save_checkpoint.records", len(kwargs["completed"]))

    for method in ("claim_next", "mark_done", "mark_failed", "save_checkpoint"):
        _patch_method(CampaignStore, method, lambda fn, m=method: rec.wrap(
            f"store.{m}", fn,
            job=None if m == "claim_next" else digest_arg,
            after=checkpoint_bytes if m == "save_checkpoint" else None,
        ))

    real_run = subprocess.run

    def counting_run(cmd, *args, **kwargs):
        if isinstance(cmd, (list, tuple)) and cmd and cmd[0] == "git":
            rec.add("git_spawns")
            if (rec.current() or "").startswith("store."):
                rec.add("store.git_spawns")
        return real_run(cmd, *args, **kwargs)

    subprocess.run = counting_run

    _patch_function("repro.campaign.executor", "execute_spec",
                    lambda fn: rec.wrap("executor.execute_spec", fn,
                                        job=spec_digest))
    _patch_function("repro.campaign.executor", "execute_spec_resumable",
                    lambda fn: rec.wrap("executor.execute_spec_resumable", fn,
                                        job=digest_arg))
    _patch_method(JobSpec, "build_protocol",
                  lambda fn: rec.wrap("spec.build_protocol", fn))

    def compiled(args, kwargs, _result):
        rec.fingerprints.add(protocol_fingerprint(args[0]))

    _patch_function("repro.core.compiler", "compile_protocol",
                    lambda fn: rec.wrap("compiler.compile_protocol", fn,
                                        after=compiled))

    _patch_method(CountBasedEngine, "start",
                  lambda fn: rec.wrap("engine.start", fn))
    _patch_method(EngineSession, "advance",
                  lambda fn: rec.wrap("engine.advance", fn))

    real_result = EngineSession.result

    def counting_result(self, *args, **kwargs):
        result = real_result(self, *args, **kwargs)
        rec.add("engine.trials")
        rec.add("engine.interactions", int(result.interactions))
        rec.add("engine.effective_interactions", int(result.effective_interactions))
        return result

    EngineSession.result = counting_result

    kernel_sets: dict[int, object] = {}

    def wrap_get_kernels(fn):
        @functools.wraps(fn)
        def get_kernels():
            real = fn()
            wrapped = kernel_sets.get(id(real))
            if wrapped is None:
                wrapped = dataclasses.replace(
                    real, jump_chain=rec.wrap("kernels.jump_chain", real.jump_chain)
                )
                kernel_sets[id(real)] = wrapped
                rec.counts["kernels.build_s"] = real.compile_seconds
            return wrapped
        return get_kernels

    _patch_function("repro.engine.kernels", "get_kernels", wrap_get_kernels)

    def point_job(args, kwargs):
        protocol = args[0]
        n = args[1] if len(args) > 1 else kwargs.get("n")
        return f"{protocol.name} n={n} seed={kwargs.get('seed')}"

    _patch_function("repro.engine.runner", "run_trials",
                    lambda fn: rec.wrap("runner.run_trials", fn, job=point_job))
    _patch_function("repro.engine.runner", "finalize_trials",
                    lambda fn: rec.wrap("runner.finalize_trials", fn))

    def keyed_rows(args, kwargs, _appended):
        rec.add("columnar.append_keyed.rows", len(args[2]))

    real_append_keyed = ShardWriter.append_keyed
    wrapped_append_keyed = rec.wrap("columnar.append_keyed", real_append_keyed,
                                    job=lambda a, k: a[1], after=keyed_rows)

    def append_keyed(self, key, records):
        return wrapped_append_keyed(self, key, list(records))

    ShardWriter.append_keyed = append_keyed

    def reduced_rows(args, kwargs, _groups):
        rec.add("columnar.group_reduce.rows", args[0].rows)

    _patch_function("repro.io.columnar", "group_reduce",
                    lambda fn: rec.wrap("columnar.group_reduce", fn,
                                        after=reduced_rows))
    _patch_function("repro.analysis.scaling", "bootstrap_scaling_fit",
                    lambda fn: rec.wrap("scaling.bootstrap_scaling_fit", fn))
    _patch_function("repro.experiments.common", "write_outputs",
                    lambda fn: rec.wrap("experiments.write_outputs", fn))


#: Per-layer metric names reported from spans: ``<span>.<stat>``.
SPAN_METRICS = (
    ("store.claim_next", "busy_s"),
    ("store.mark_done", "calls"), ("store.mark_done", "busy_s"),
    ("store.mark_failed", "calls"),
    ("store.save_checkpoint", "calls"), ("store.save_checkpoint", "busy_s"),
    ("executor.execute_spec", "busy_s"),
    ("executor.execute_spec_resumable", "busy_s"),
    ("spec.build_protocol", "busy_s"),
    ("compiler.compile_protocol", "calls"),
    ("compiler.compile_protocol", "busy_s"),
    ("engine.start", "calls"), ("engine.start", "busy_s"),
    ("kernels.jump_chain", "calls"), ("kernels.jump_chain", "busy_s"),
    ("runner.run_trials", "calls"), ("runner.run_trials", "busy_s"),
    ("runner.finalize_trials", "busy_s"),
    ("columnar.append_keyed", "busy_s"),
    ("columnar.group_reduce", "busy_s"),
    ("scaling.bootstrap_scaling_fit", "busy_s"),
    ("experiments.write_outputs", "busy_s"),
)

#: Counters that must repeat exactly for one seed (asserted by run.py).
DETERMINISTIC = (
    "engine.interactions", "engine.effective_interactions", "engine.trials",
    "engine.start.calls", "compiler.compile_protocol.calls",
    "compiler.distinct_protocols", "store.git_spawns", "git_spawns",
    "store.save_checkpoint.calls", "store.save_checkpoint.records",
    "store.mark_done.calls", "store.mark_failed.calls",
    "kernels.jump_chain.calls", "runner.run_trials.calls",
    "columnar.append_keyed.rows",
)


def summarize(rec: Recorder) -> dict[str, float]:
    """Flat per-layer numbers of one traced round."""
    stats = rec.layer_stats()
    out: dict[str, float] = {}
    for span, stat in SPAN_METRICS:
        out[f"{span}.{stat}"] = stats.get(span, {}).get(stat, 0)
    out["engine.advance.self_s"] = stats.get("engine.advance", {}).get("self_s", 0.0)
    for name in ("engine.interactions", "engine.effective_interactions",
                 "engine.trials", "store.git_spawns", "git_spawns",
                 "store.save_checkpoint.bytes", "store.save_checkpoint.records",
                 "columnar.append_keyed.rows",
                 "columnar.group_reduce.rows"):
        out[name] = rec.counts.get(name, 0)
    out["kernels.build_s"] = rec.counts.get("kernels.build_s", 0.0)
    out["compiler.distinct_protocols"] = len(rec.fingerprints)
    compiles = out["compiler.compile_protocol.calls"]
    out["compiler.useful_ratio"] = (
        len(rec.fingerprints) / compiles if compiles else 0.0
    )
    interactions = out["engine.interactions"]
    out["engine.effective_ratio"] = (
        out["engine.effective_interactions"] / interactions if interactions else 0.0
    )
    trials = out["engine.start.calls"]
    out["kernels.calls_per_trial"] = (
        out["kernels.jump_chain.calls"] / trials if trials else 0.0
    )
    out["trace.spans"] = len(rec.spans)
    out["trace.covered_s"] = rec.covered_s()
    return out
