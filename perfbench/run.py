"""Benchmark command: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-http --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``campaign-http``
    ``repro-experiments campaign serve`` on a fresh store, driven over
    HTTP by a two-connection closed-loop client.
``campaign-columnar``
    The calls of ``campaign run --no-submit --columnar DIR`` on a fresh
    store and sink, then ``group_reduce`` over the sink.
``sweep-jit``
    A Figure 3 sweep and a scaling-law sweep on ``count-jit``, then
    ``scaling_report``, ``write_outputs`` and a columnar query.

A run makes ``--seconds / ROUND_S`` rounds of its workload (at least
three), each round in fresh processes with a fresh store, sink and
output directory; round ``r`` of seed ``s`` always gets the same
inputs.  ``--trace 0`` reports the end-to-end metrics over the rounds,
with times normalised to a reference machine speed that ``probe.py``
samples during the run (see :class:`SpeedProbe`).  ``--trace 1`` runs
round 0 a fixed number of times untraced and twice traced, asserts that
every per-layer count repeats exactly, and reports the per-layer metrics.
Output checks run in every round; a failed check ends the run with
exit code 1.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  Everything a run
writes stays under ``.perfbench/`` in the checkout, including the
spans of traced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TMP = WORK / "tmp"

WORKLOADS = ("campaign-http", "campaign-columnar", "sweep-jit")
MIN_ROUNDS = 3
#: Wall seconds one round (set-up, run, checks) takes, about, on the
#: machine the bounds were set on.  A run makes ``round(--seconds /
#: ROUND_S)`` rounds, a number fixed by its arguments, so every run of a
#: seed does the same work and its ``attempted`` and ``failed`` repeat.
ROUND_S = 6.0
#: A run stops starting rounds once it would pass this, whatever
#: ``--seconds`` says, so it always exits well inside 180 seconds.
HARD_LIMIT_S = 140.0
ROUND_TIMEOUT_S = 120.0
#: Untraced rounds of a traced run: on campaign-http four rounds log
#: well over the 1,000 requests a p99 with ten samples beyond it needs.
TRACE_BASE_ROUNDS = {"campaign-http": 4, "campaign-columnar": 2, "sweep-jit": 2}
#: CPU seconds one probe (``probe.py``) takes at the reference speed, its
#: typical time on the 2-vCPU machine the bounds were set on, so that
#: speed-normalised times read as seconds there.
REFERENCE_S = 0.002
PROBE_MIN_SAMPLES = 5


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class CheckFailed(Exception):
    """An output check failed (raised here or reported by a worker)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The compiled-kernel cache lives under the temporary directory.
    env["TMPDIR"] = str(TMP)
    env["PYTHONUNBUFFERED"] = "1"
    # Users run with bytecode caching on: the warm worker writes the
    # caches, and every timed set-up then loads them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_KERNEL", None)
    return env


def cpu_split() -> tuple[set[int], set[int]]:
    """CPUs for this process (the client) and for the processes it spawns.

    With two or more CPUs the client gets one to itself, so the load it
    generates does not take CPU time from the daemon or worker under
    measurement.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


CLIENT_CPUS, WORK_CPUS = cpu_split()


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start ``cmd`` on the work CPUs; the child inherits the mask at fork."""
    os.sched_setaffinity(0, WORK_CPUS)
    try:
        return subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kwargs)
    finally:
        os.sched_setaffinity(0, CLIENT_CPUS)


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Signal ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(mode: str, cfg: dict) -> tuple[tuple[float, float], dict]:
    """Spawn ``worker.py``; return ((spawn, ready) times, result record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, json.dumps(cfg)]
    t0 = time.perf_counter()
    proc = spawn(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if record["event"] == "ready":
                ready = time.perf_counter()
            elif record["event"] == "check_failed":
                raise CheckFailed(f"{mode} round {cfg.get('round')}: {record['message']}")
            elif record["event"] == "result":
                result = record
        proc.wait()
    finally:
        watchdog.cancel()
        stop(proc, signal.SIGKILL)
        proc.stdout.close()
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return (t0, ready if ready is not None else time.perf_counter()), result


class SpeedProbe:
    """Machine speed on the work CPUs over the whole run (``probe.py``).

    The virtual machine this was built on drifts in speed by up to a
    factor of two, over seconds to minutes (noisy neighbours: it shows
    in CPU time as much as in wall time, and steal adds to it).  Timings are
    therefore reported speed-normalised: an interval's wall time, less
    the time the hypervisor took from the work CPU (steal), is
    multiplied by its speed, ``REFERENCE_S / median probe CPU time
    inside the interval``.  That gives the time it would have taken at the
    reference speed.  A change to the program moves the interval, not
    the probe.
    """

    def __init__(self) -> None:
        self.proc = spawn([sys.executable, str(HERE / "probe.py")],
                          stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float, int]] = []

    def close(self) -> None:
        """Stop the probe, wait for it, and keep its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=30)
        self.samples = sorted(map(tuple, json.loads(out or "[]")))

    def speed(self, window: tuple[float, float]) -> float:
        """Machine speed during ``window``, relative to the reference."""
        if len(self.samples) < PROBE_MIN_SAMPLES:
            raise RuntimeError(f"speed probe logged {len(self.samples)} samples")
        t0, t1 = window
        times: list[float] = []
        while len(times) < PROBE_MIN_SAMPLES:
            times = [d for start, d, _ in self.samples if t0 <= start <= t1]
            t0, t1 = t0 - 0.1, t1 + 0.1
        return REFERENCE_S / statistics.median(times)

    def stolen_s(self, window: tuple[float, float]) -> float:
        """Seconds the hypervisor took from a work CPU during ``window``."""
        def ticks_at(t: float) -> int:
            before = [stolen for start, _, stolen in self.samples if start <= t]
            return before[-1] if before else self.samples[0][2]

        ticks = ticks_at(window[1]) - ticks_at(window[0])
        return ticks / os.sysconf("SC_CLK_TCK") / len(WORK_CPUS)


def host_cpu_ticks() -> list[int]:
    """The host's aggregate CPU time counters (``/proc/stat``)."""
    return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine meanwhile.

    Steal slows every timing of a run; the report records it so that a
    noisy run can be told from a slow program.
    """
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def http_round(seed: int, rnd: int, rdir: Path, trace: bool) -> dict:
    import client
    import inputs
    import worker

    serve = ["campaign", "serve", "--db", str(rdir / "campaign.db"), "--port", "0"]
    if trace:
        cmd = [sys.executable, str(HERE / "serve.py"), str(rdir / "spans.json"), *serve]
    else:
        cmd = [sys.executable, "-m", "repro.experiments.cli", *serve]
    out_path, err_path = rdir / "daemon.out", rdir / "daemon.err"
    specs = inputs.http_jobs(seed, rnd)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = spawn(cmd, stdout=out, stderr=err)
        try:
            host, port = wait_for_daemon(proc, out_path)
            t_ready = time.perf_counter()
            drained = client.drain(host, port, specs)
            peak = vm_hwm_mb(proc.pid)
        finally:
            stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"daemon exited with {proc.returncode}: {err_path.read_text()}")
    shutdown_tracebacks = cancelled_tracebacks(err_path.read_text())

    from repro.campaign.store import CampaignStore

    store = CampaignStore(rdir / "campaign.db")
    try:
        outcome = worker.check_store(store, specs)
        worker.check_references(outcome, seed, rnd, 4)
    except worker.CheckFailed as exc:
        raise CheckFailed(f"campaign-http round {rnd}: {exc}") from None
    finally:
        store.close()
    for digest, job in drained["results"].items():
        if job["status"] == "done":
            summary = job["summary"]
            if not (summary["all_converged"] and summary["trials"] == inputs.HTTP_TRIALS
                    and digest in outcome["records"]):
                raise CheckFailed(f"campaign-http: /result/{digest} returned {summary}")
    if len(drained["results"]) != len(specs):
        raise CheckFailed("campaign-http: not every job reached a terminal state")

    requests = drained["requests"]
    telemetry = drained["server"]["telemetry"]
    micros = telemetry["histograms"].get("campaign.http.micros", {"sum": 0.0})
    layers = None
    if trace:
        import spans

        recorder = spans.Recorder.load(rdir / "spans.json", drained["window"])
        layers = spans.summarize(recorder)
        layers["unattributed_s"] = drained["run_s"] - layers["trace.covered_s"]
        layers.update({
            "service_v2.requests": telemetry["counters"].get("campaign.http.requests", 0),
            "service_v2.busy_s": micros["sum"] / 1e6,
            "service_v2.refused": drained["refused"],
        })
        for route in ("submit", "status", "result"):
            times = [ms for r, ms, _ in requests if r == route]
            layers[f"service_v2.{route}_p50_ms"] = statistics.median(times) if times else 0.0
    return {
        "setup_s": t_ready - t0,
        "setup_window": (t0, t_ready),
        "run_s": drained["run_s"],
        "run_window": drained["window"],

        "jobs": len(specs),
        "jobs_done": outcome["jobs_done"],
        "jobs_failed": outcome["jobs_failed"],
        "errors": outcome["errors"],
        "retries": outcome["retries"],
        "queue_wait_p50_s": outcome["queue_wait_p50_s"],
        "interactions": outcome["interactions"],
        "peak_rss_mb": peak,
        "requests_ms": [ms for _, ms, _ in requests],
        "refused": drained["refused"],
        "transport_errors": drained["transport_errors"],
        "shutdown_tracebacks": shutdown_tracebacks,
        "query_s": None,
        "layers": layers,
    }


#: Lines that join one traceback to the next in a chained exception.
CHAIN_MARKERS = (
    "During handling of the above exception",
    "The above exception was the direct cause",
)


def cancelled_tracebacks(stderr: str) -> int:
    """Tracebacks in ``stderr`` whose final exception is a CancelledError.

    A chained traceback prints one block per exception; only its last
    block names the exception that ended it, so it counts once.
    """
    count = 0
    for block in stderr.split("Traceback (most recent call last):")[1:]:
        if any(marker in block for marker in CHAIN_MARKERS):
            continue
        # Frame lines are indented; the exception line is not.
        lines = [ln for ln in block.splitlines()[1:] if ln and not ln[0].isspace()]
        if lines and lines[0].split(":")[0].endswith("CancelledError"):
            count += 1
    return count


def wait_for_daemon(proc: subprocess.Popen, out_path: Path) -> tuple[str, int]:
    """The daemon's address once it prints it and ``/healthz`` answers."""
    import http.client

    deadline = time.perf_counter() + 60
    address = None
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode} during set-up")
        if address is None:
            match = re.search(r"on http://([\d.]+):(\d+)", out_path.read_text())
            if match:
                address = (match.group(1), int(match.group(2)))
        if address is not None:
            conn = http.client.HTTPConnection(*address, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return address
            except OSError:
                pass
            finally:
                conn.close()
        time.sleep(0.005)
    raise RuntimeError("daemon did not answer /healthz within 60 s")


def worker_round(workload: str, seed: int, rnd: int, rdir: Path, trace: bool) -> dict:
    setup_window, result = run_worker(
        workload, {"seed": seed, "round": rnd, "dir": str(rdir), "trace": trace}
    )
    layers = result["layers"]
    if layers is not None:
        layers["kernels.build_s"] = result["kernel_build_s"]
        # No HTTP layer runs in this workload.
        layers.update({
            "service_v2.requests": 0, "service_v2.busy_s": 0.0,
            "service_v2.submit_p50_ms": 0.0, "service_v2.status_p50_ms": 0.0,
            "service_v2.result_p50_ms": 0.0, "service_v2.refused": 0,
        })
    return {
        **result,
        "setup_s": setup_window[1] - setup_window[0],
        "setup_window": setup_window,
        "run_window": tuple(result.pop("window")),
        "requests_ms": [],
        "refused": 0,
        "transport_errors": 0,
        "shutdown_tracebacks": 0,
    }


def run_round(workload: str, seed: int, rnd: int, trace: bool, tag: str) -> dict:
    rdir = WORK / "runs" / f"{workload}-seed{seed}" / tag
    if rdir.exists():
        shutil.rmtree(rdir)
    rdir.mkdir(parents=True)
    if workload == "campaign-http":
        result = http_round(seed, rnd, rdir, trace)
    else:
        result = worker_round(workload, seed, rnd, rdir, trace)
    # An operation is one job, plus every refused or broken request and
    # every shutdown traceback: each is an attempt that failed.  Plain
    # HTTP requests are not operations, as their number follows timing.
    retried = result["refused"] + result["transport_errors"] + result["shutdown_tracebacks"]
    result["operations"] = result["jobs"] + retried
    result["failed_operations"] = result["jobs_failed"] + retried
    if result["layers"] is not None:
        result["layers"]["store.queue_wait_p50_s"] = result["queue_wait_p50_s"]
        result["layers"]["executor.retries"] = result["retries"]
    # Keep the span file; stores, sinks and outputs are checked by now.
    for child in rdir.iterdir():
        if child.name != "spans.json":
            shutil.rmtree(child) if child.is_dir() else child.unlink()
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def normalised_setup_s(r: dict) -> float:
    return (r["setup_s"] - r["setup_stolen_s"]) * r["setup_speed"]


def normalised_run_s(r: dict) -> float:
    return (r["run_s"] - r["run_stolen_s"]) * r["run_speed"]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Times are medians over rounds, throughputs total work over total
    time; times are speed-normalised (see :class:`SpeedProbe`)."""
    run_total = sum(map(normalised_run_s, rounds))
    return {
        "setup_s": statistics.median(map(normalised_setup_s, rounds)),
        "run_s": statistics.median(map(normalised_run_s, rounds)),
        "jobs_per_s": sum(r["jobs_done"] + r["jobs_failed"] for r in rounds) / run_total,
        "interactions_per_s": sum(r["interactions"] for r in rounds) / run_total,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def wall_times(rounds: list[dict]) -> dict[str, float]:
    """The measured wall times behind the normalised ones, for the report."""
    return {
        "wall_setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_run_s": statistics.median(r["run_s"] for r in rounds),
        "run_speed": statistics.median(r["run_speed"] for r in rounds),
        "run_stolen_s": statistics.median(r["run_stolen_s"] for r in rounds),
    }


def untraced_extras(rounds: list[dict]) -> dict[str, float]:
    """Tracing-off numbers kept out of the gated set (see README)."""
    latencies = [ms for r in rounds for ms in r["requests_ms"]]
    queries = [r["query_s"] for r in rounds if r["query_s"] is not None]
    attempted = sum(r["operations"] for r in rounds)
    return {
        "http_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "http_p99_ms": percentile(latencies, 99) if latencies else 0.0,
        "http_requests": len(latencies),
        "query_s": statistics.median(queries) if queries else 0.0,
        "failed_ratio": sum(r["failed_operations"] for r in rounds) / attempted,
    }


def deterministic_counts(layers: dict) -> dict:
    import spans

    return {name: layers.get(name) for name in spans.DETERMINISTIC}


def per_layer(bases: list[dict], traced: list[dict], names) -> dict[str, float]:
    """Per-layer metrics: counts must repeat exactly, times are medians."""
    first, second = (deterministic_counts(r["layers"]) for r in traced)
    if first != second:
        diff = {k: (v, second[k]) for k, v in first.items() if second[k] != v}
        raise CheckFailed(f"per-layer counts differ between two traced runs: {diff}")
    out = {}
    for name in names:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            out[name] = values[0] if name in first else statistics.median(values)
    out.update(untraced_extras(bases))
    out["trace.overhead_s"] = (
        statistics.median(map(normalised_run_s, traced))
        - statistics.median(map(normalised_run_s, bases))
    )
    return out


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_tree_id(path: Path) -> str:
    """The git tree object id of ``path``, computed without git.

    Equals ``git rev-parse HEAD:src`` on a clean checkout, so it names
    the measured source even where the checkout is not a repository.
    """
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__":
            continue
        if child.is_dir():
            mode, oid, key = b"40000", git_tree_id(child), child.name + "/"
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            oid = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            key = child.name
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(oid)))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def provenance(args, warm: dict, so_warm: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_tree": git_tree_id(SRC),
        "cpu_count": os.cpu_count(),
        "kernel_backend": warm["backend"],
        "kernel_so_warm": so_warm,
        "python": warm["python"],
        "numpy": warm["numpy"],
        "platform": platform.platform(),
        "run_seconds": args.seconds,
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, names) -> tuple[list[dict], dict]:
    """Run the rounds of one invocation; returns (rounds, metrics)."""
    probe = SpeedProbe()
    rounds: list[dict] = []
    try:
        if args.trace:
            for i in range(TRACE_BASE_ROUNDS[args.workload]):
                rounds.append(run_round(args.workload, args.seed, 0, False,
                                        f"untraced-{i}"))
            for i in range(2):
                rounds.append(run_round(args.workload, args.seed, 0, True,
                                        f"traced-{i}"))
        else:
            count = max(MIN_ROUNDS, round(args.seconds / ROUND_S))
            t0 = time.perf_counter()
            for rnd in range(count):
                t_round = time.perf_counter()
                rounds.append(run_round(args.workload, args.seed, rnd,
                                        False, f"round-{rnd}"))
                elapsed = time.perf_counter() - t0
                if elapsed + (time.perf_counter() - t_round) > HARD_LIMIT_S:
                    break
    finally:
        probe.close()
    for r in rounds:
        for part in ("setup", "run"):
            window = r.pop(f"{part}_window")
            r[f"{part}_speed"] = probe.speed(window)
            r[f"{part}_stolen_s"] = min(probe.stolen_s(window), r[f"{part}_s"])
    if args.trace:
        return rounds, per_layer(rounds[:-2], rounds[-2:], names)
    return rounds, end_to_end(rounds)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    os.sched_setaffinity(0, CLIENT_CPUS)
    sys.path[:0] = [str(SRC)]
    so_warm = any(TMP.rglob("*.so"))
    _, warm = run_worker("warm", {})
    prov = provenance(args, warm, so_warm)
    print("provenance " + json.dumps(prov), flush=True)

    units = metric_units(bool(args.trace))
    ticks = host_cpu_ticks()
    try:
        rounds, metrics = measure(args, units)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    report = {
        "provenance": prov,
        "host_steal_share": steal_share(ticks, host_cpu_ticks()),
        "rounds": [{k: v for k, v in r.items() if k not in ("requests_ms",)}
                   for r in rounds],
        "metrics": metrics,
        "untraced": untraced_extras(rounds[:-2] if args.trace else rounds),
        "wall": wall_times(rounds),
    }
    if args.trace:
        import spans

        report["unmeasured"] = spans.UNMEASURED
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, default=str))
    print("report " + json.dumps({
        "rounds": len(rounds),
        "host_steal_share": report["host_steal_share"],
        "errors": sum((Counter(r["errors"]) for r in rounds), Counter()),
        **report["untraced"],
        **report["wall"],
    }), flush=True)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["operations"] for r in rounds),
        "failed": sum(r["failed_operations"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
