"""One measured round of a workload, in a fresh process.

Usage (run.py spawns it; ``PYTHONPATH`` must name the checkout's ``src``)::

    python3 perfbench/worker.py warm '{}'
    python3 perfbench/worker.py campaign-columnar '{"seed": 1, "round": 0, ...}'
    python3 perfbench/worker.py sweep-jit '{"seed": 1, "round": 0, ...}'

The worker prints ``{"event": "ready"}`` once set-up is done (imports,
kernel load, store and sink opened), then one ``{"event": "result"}``
line.  Set-up time is measured by the parent, from spawn to the ready
line.  The output checks live here too; ``run.py`` uses
:func:`check_store` on the campaign-http daemon's store.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import inputs


class CheckFailed(Exception):
    """An output check failed: the run is wrong, not merely slow."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_trials(label: str, results: list[dict]) -> None:
    """Every trial converged and its groups differ in size by at most one."""
    for t, result in enumerate(results):
        check(result["converged"], f"{label} trial {t} did not converge")
        sizes = result["group_sizes"]
        check(max(sizes) - min(sizes) <= 1,
              f"{label} trial {t} is not uniform: groups {sizes}")


def _plain(record: dict) -> dict:
    """A record as JSON would store it, minus the wall-clock field."""
    out = json.loads(json.dumps(record, default=lambda o: o.item()))
    for result in out["results"]:
        result.pop("elapsed")
    return out


def check_store(store, specs: list[dict]) -> dict:
    """Check a drained campaign store and read its per-job outcome.

    Every job is terminal, and every done job's trials converged to
    uniform groups.
    """
    jobs = store.list_jobs(limit=len(specs) + 1)
    check(len(jobs) == len(specs),
          f"store holds {len(jobs)} jobs, {len(specs)} were submitted")
    done = [j for j in jobs if j.status == "done"]
    failed = [j for j in jobs if j.status == "failed"]
    check(len(done) + len(failed) == len(jobs),
          f"{len(jobs) - len(done) - len(failed)} jobs never finished")
    records = {}
    for job in done:
        record = store.result_record(job.digest)
        check(record is not None, f"done job {job.digest[:12]} has no record")
        check(len(record["results"]) == job.spec.trials,
              f"job {job.digest[:12]} returned {len(record['results'])} trials")
        check_trials(f"job {job.digest[:12]}", record["results"])
        records[job.digest] = record
    waits = sorted(j.started_at - j.created_at for j in done)
    return {
        "jobs_done": len(done),
        "jobs_failed": len(failed),
        "errors": dict(Counter(j.error for j in failed)),
        "retries": sum(j.attempts - 1 for j in jobs),
        "queue_wait_p50_s": waits[len(waits) // 2] if waits else 0.0,
        "interactions": sum(
            r["interactions"] for rec in records.values() for r in rec["results"]
        ),
        "done": done,
        "records": records,
    }


def check_references(outcome: dict, seed: int, rnd: int, count: int) -> None:
    """A seeded sample of done jobs equals an in-process ``run_trials``."""
    from repro.engine.runner import run_trials

    for job in inputs.sample(seed, rnd, outcome["done"], count):
        spec = job.spec
        fresh = run_trials(
            spec.build_protocol(), spec.n, trials=spec.trials,
            engine=spec.engine, seed=spec.seed,
        )
        check(_plain(fresh.to_record()) == _plain(outcome["records"][job.digest]),
              f"job {job.digest[:12]} differs from an in-process run_trials")


def check_groups(groups: list[dict], rows: list[dict], label: str) -> None:
    """``group_reduce`` counts and means equal the rows they came from."""
    expected: dict[tuple, list[int]] = {}
    for row in rows:
        expected.setdefault((row["k"], row["n"]), []).append(row["interactions"])
    got = {(g["k"], g["n"]): g for g in groups}
    check(set(got) == set(expected),
          f"{label}: group_reduce groups {sorted(got)} != {sorted(expected)}")
    for key, values in expected.items():
        check(got[key]["count"] == len(values),
              f"{label}: group {key} count {got[key]['count']} != {len(values)}")
        mean = sum(values) / len(values)
        check(math.isclose(got[key]["mean"], mean, rel_tol=1e-12),
              f"{label}: group {key} mean {got[key]['mean']} != {mean}")


def start_trace(cfg: dict):
    """Install the layer wrappers; before any ``from repro... import``."""
    if not cfg.get("trace"):
        return None
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.active = False  # set-up is not traced; measure() turns it on
    return recorder


def begin(recorder) -> float:
    """Start of the measured part of a round."""
    if recorder is not None:
        recorder.active = True
    return time.perf_counter()


def finish_trace(recorder, cfg: dict, run_s: float) -> dict | None:
    """Per-layer numbers of the measured part; later calls leave no spans."""
    if recorder is None:
        return None
    import spans

    recorder.active = False
    recorder.dump(Path(cfg["dir"]) / "spans.json")
    layers = spans.summarize(recorder)
    layers["unattributed_s"] = run_s - layers["trace.covered_s"]
    return layers


def warm(cfg: dict) -> None:
    """Import every measured module and build or load the kernels."""
    import platform

    import numpy

    import repro.campaign.executor  # noqa: F401
    import repro.campaign.service_v2  # noqa: F401
    import repro.experiments.cli  # noqa: F401
    import repro.experiments.fig3_vary_n  # noqa: F401
    import repro.experiments.scaling_law  # noqa: F401
    import repro.io.columnar  # noqa: F401
    from repro.engine.kernels import get_kernels

    kernels = get_kernels()
    emit(event="result", backend=kernels.backend,
         kernel_build_s=kernels.compile_seconds,
         python=platform.python_version(), numpy=numpy.__version__)


def campaign_columnar(cfg: dict) -> None:
    """``campaign run --no-submit --columnar DIR`` plus a query, in-process."""
    recorder = start_trace(cfg)
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import JobSpec
    from repro.campaign.store import CampaignStore
    from repro.engine.kernels import get_kernels
    from repro.io.columnar import ColumnStore, ShardWriter, group_reduce

    seed, rnd, work = cfg["seed"], cfg["round"], Path(cfg["dir"])
    kernels = get_kernels()
    store = CampaignStore(work / "campaign.db")
    sink_path = work / "trials.columnar"
    sink = ShardWriter(sink_path, name="campaign_trials")
    specs = [JobSpec.from_dict(s) for s in inputs.columnar_jobs(seed, rnd)]
    emit(event="ready")

    t0 = begin(recorder)
    outcome = store.submit_many(specs)
    report = run_campaign(store, workers=1, retries=1, sink=sink)
    sink.close()
    t_query = time.perf_counter()
    groups = group_reduce(ColumnStore(sink_path), by=["k", "n"],
                          values=["interactions"])
    query_s = time.perf_counter() - t_query
    check(outcome["done"] == 0 and report.cache_hits == 0,
          f"fresh store reported cache hits: {outcome}, {report.summary()}")
    result = check_store(store, [s.canonical() for s in specs])
    rows = [
        {"k": spec.params["k"], "n": r["n"], "interactions": r["interactions"]}
        for spec in specs if spec.digest in result["records"]
        for r in result["records"][spec.digest]["results"]
    ]
    check_groups(groups, rows, "campaign sink")
    t1 = time.perf_counter()
    run_s = t1 - t0

    layers = finish_trace(recorder, cfg, run_s)
    check_references(result, seed, rnd, 2)
    store.close()
    emit(
        event="result", run_s=run_s, window=(t0, t1), query_s=query_s,
        jobs=len(specs), jobs_done=result["jobs_done"],
        jobs_failed=result["jobs_failed"], errors=result["errors"],
        retries=report.retried, queue_wait_p50_s=result["queue_wait_p50_s"],
        interactions=result["interactions"], peak_rss_mb=peak_rss_mb(),
        kernel_build_s=kernels.compile_seconds,
        layers=layers,
    )


def sweep_jit(cfg: dict) -> None:
    """A Figure 3 sweep and a scaling-law sweep on the fastest tier."""
    recorder = start_trace(cfg)
    from repro.engine.kernels import get_kernels
    from repro.engine.runner import run_trials
    from repro.experiments.common import point_seed, write_outputs
    from repro.experiments.fig3_vary_n import render_fig3, run_fig3
    from repro.experiments.scaling_law import (
        grid_points, render_scaling_law, run_scaling_law, scaling_report,
    )
    from repro.io.columnar import ColumnStore, group_reduce
    from repro.protocols.kpartition import uniform_k_partition

    seed, rnd, work = cfg["seed"], cfg["round"], Path(cfg["dir"])
    kernels = get_kernels()
    exp_seed = inputs.round_seed("sweep-jit", seed, rnd)
    engine = inputs.SWEEP_ENGINE
    emit(event="ready")

    t0 = begin(recorder)
    fig3 = run_fig3(**inputs.FIG3, engine=engine, seed=exp_seed)
    scaling = run_scaling_law(**inputs.SCALING, engine=engine, seed=exp_seed)
    report = scaling_report(scaling)
    write_outputs(fig3, work, render=render_fig3)
    write_outputs(scaling, work, render=render_scaling_law)
    t_query = time.perf_counter()
    groups = group_reduce(ColumnStore(work / "scaling_law.columnar"),
                          by=["k", "n"], values=["interactions"])
    query_s = time.perf_counter() - t_query
    fig3_points = sum(
        len(range(k + 2, inputs.FIG3["n_max"] + 1)) for k in inputs.FIG3["ks"]
    )
    scaling_points = grid_points(inputs.SCALING["ks"], inputs.SCALING["n_values"])
    check(len(fig3.rows) == fig3_points,
          f"fig3 returned {len(fig3.rows)} points, expected {fig3_points}")
    check(all(r["trials"] == inputs.FIG3["trials"] for r in fig3.rows),
          "a fig3 point lost trials")
    check(len(scaling.rows) == len(scaling_points) * inputs.SCALING["trials"],
          f"scaling-law returned {len(scaling.rows)} trial rows")
    check(all(r["converged"] for r in scaling.rows),
          "a scaling-law trial did not converge")
    check(sorted(report) == sorted(inputs.SCALING["ks"]),
          f"scaling report fitted k={sorted(report)}")
    check_groups(groups, scaling.rows, "scaling-law columnar")
    t1 = time.perf_counter()
    run_s = t1 - t0

    layers = finish_trace(recorder, cfg, run_s)
    interactions = sum(
        round(r["mean_interactions"] * r["trials"]) for r in fig3.rows
    ) + sum(r["interactions"] for r in scaling.rows)

    # Reference: a seeded sample of points re-run in-process, bit for bit.
    for row in inputs.sample(seed, rnd, fig3.rows, 3):
        k, n = row["k"], row["n"]
        ts = run_trials(uniform_k_partition(k), n,
                        trials=inputs.FIG3["trials"], engine=engine,
                        seed=point_seed(exp_seed, "fig3", k, n))
        check_trials(f"fig3 k={k} n={n}", [r.to_record() for r in ts.results])
        check((ts.mean_interactions, int(ts.interactions.min()),
               int(ts.interactions.max()), ts.std_interactions)
              == (row["mean_interactions"], row["min_interactions"],
                  row["max_interactions"], row["std_interactions"]),
              f"fig3 k={k} n={n} differs from an in-process run_trials")
    for k, n in inputs.sample(seed, rnd, scaling_points, 1):
        ts = run_trials(uniform_k_partition(k), n,
                        trials=inputs.SCALING["trials"], engine=engine,
                        seed=point_seed(exp_seed, "scaling-law", k, n))
        check_trials(f"scaling k={k} n={n}", [r.to_record() for r in ts.results])
        got = [(r["interactions"], r["effective_interactions"])
               for r in scaling.rows if r["k"] == k and r["n"] == n]
        want = [(int(a), int(b)) for a, b in
                zip(ts.interactions, ts.effective_interactions)]
        check(got == want,
              f"scaling k={k} n={n} differs from an in-process run_trials")

    emit(
        event="result", run_s=run_s, window=(t0, t1), query_s=query_s,
        jobs=len(fig3.rows) + len(scaling_points),
        jobs_done=len(fig3.rows) + len(scaling_points), jobs_failed=0,
        errors={}, retries=0, queue_wait_p50_s=0.0,
        interactions=interactions, peak_rss_mb=peak_rss_mb(),
        kernel_build_s=kernels.compile_seconds,
        layers=layers,
    )


MODES = {"warm": warm, "campaign-columnar": campaign_columnar, "sweep-jit": sweep_jit}


def main(argv: list[str]) -> int:
    mode, cfg = argv[1], json.loads(argv[2])
    try:
        MODES[mode](cfg)
    except CheckFailed as exc:
        emit(event="check_failed", message=str(exc))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
