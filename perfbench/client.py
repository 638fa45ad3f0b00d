"""The campaign-http load: one client process, two keep-alive connections.

A closed loop in two threads, one connection each:

* connection A submits the round's jobs in batches of 50 whenever
  ``/status`` leaves room under the queue limit, and otherwise polls
  ``/status`` until the drain ends;
* connection B reads ``/result/<digest>`` in submission order and asks
  again after a short pause until each job is terminal, so reads run
  beside the drain.

Every request is timed from just before it is sent to the end of its
response body.  Refusals (429) and transport errors are counted as
failed operations; a request is then retried.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time

BATCH = 50
#: Pause between ``/status`` polls on A and between re-reads of an
#: unfinished result on B.
STATUS_PAUSE_S = 0.025
RESULT_PAUSE_S = 0.010
TIMEOUT_S = 60.0


class ClientError(RuntimeError):
    """The service answered in a way the benchmark cannot continue from."""


class Connection:
    """One keep-alive HTTP/1.1 connection that logs every request."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        #: ``(route, start, end, status)`` per completed request.
        self.log: list[tuple[str, float, float, int]] = []
        self.transport_errors = 0

    def call(self, route: str, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        for _attempt in range(5):
            t0 = time.perf_counter()
            try:
                self.conn.request(method, path, body=data, headers=headers)
                response = self.conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException):
                self.transport_errors += 1
                self.conn.close()
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=TIMEOUT_S
                )
                continue
            self.log.append((route, t0, time.perf_counter(), response.status))
            return response.status, json.loads(payload)
        raise ClientError(f"{method} {path}: five transport errors in a row")

    def close(self) -> None:
        self.conn.close()


def drain(host: str, port: int, specs: list[dict]) -> dict:
    """Submit ``specs``, read every result until terminal; return the log."""
    a, b = Connection(host, port), Connection(host, port)
    digests: queue.Queue = queue.Queue()
    finished = threading.Event()
    marks: dict[str, float] = {}
    results: dict[str, dict] = {}
    refused = [0]
    errors: list[BaseException] = []

    def submitter() -> None:
        batches = [specs[i:i + BATCH] for i in range(0, len(specs), BATCH)]
        while batches and not errors:
            code, status = a.call("status", "GET", "/status")
            if code != 200:
                raise ClientError(f"/status returned {code}: {status}")
            if status["queue_depth"] + len(batches[0]) > status["queue_limit"]:
                time.sleep(STATUS_PAUSE_S)
                continue
            marks.setdefault("first_input", time.perf_counter())
            code, reply = a.call("submit", "POST", "/submit", {"specs": batches[0]})
            if code == 429:
                refused[0] += 1
                time.sleep(float(reply.get("retry_after", 1.0)))
                continue
            if code != 200:
                raise ClientError(f"/submit returned {code}: {reply}")
            if reply["already_known"]:
                raise ClientError(f"fresh store already knew jobs: {reply}")
            for digest in reply["digests"]:
                digests.put(digest)
            batches.pop(0)
        while not finished.is_set() and not errors:
            a.call("status", "GET", "/status")
            time.sleep(STATUS_PAUSE_S)

    def reader() -> None:
        for _ in range(len(specs)):
            digest = digests.get(timeout=TIMEOUT_S)
            while not errors:
                code, job = b.call("result", "GET", f"/result/{digest}")
                if code != 200:
                    raise ClientError(f"/result/{digest} returned {code}: {job}")
                if job["status"] in ("done", "failed"):
                    results[digest] = job
                    break
                time.sleep(RESULT_PAUSE_S)
        marks["last_output"] = time.perf_counter()
        finished.set()

    def guarded(fn):
        def run() -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                finished.set()
        return run

    threads = [threading.Thread(target=guarded(fn)) for fn in (submitter, reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        if errors:
            raise errors[0]
        _code, metrics = a.call("metrics", "GET", "/metrics")
    finally:
        # Close both keep-alive connections before the daemon stops.
        a.close()
        b.close()
    t0, t1 = marks["first_input"], marks["last_output"]
    return {
        "run_s": t1 - t0,
        "window": (t0, t1),
        "requests": [
            (route, (end - start) * 1000.0, status)
            for route, start, end, status in a.log + b.log
            if route != "metrics" and t0 <= start <= t1
        ],
        "refused": refused[0],
        "transport_errors": a.transport_errors + b.transport_errors,
        "results": results,
        "server": metrics,
    }
