"""Machine-speed probe: times a fixed loop on the work CPU, over and over.

Usage (run.py starts it on the CPUs its workers and daemon use)::

    python3 perfbench/probe.py

Every ``PERIOD_S`` the probe wakes, runs :func:`reference_loop` and logs
``(start, seconds, stolen)``: ``start`` from ``time.perf_counter`` (the
host-wide monotonic clock), ``seconds`` the loop's own CPU time, and
``stolen`` the steal ticks of its CPUs so far.  CPU time leaves out
the time the hypervisor or another process held the CPU, so it measures
only how fast the CPU runs; the steal ticks measure how long the
hypervisor did not run it at all.  On SIGTERM, or when its parent is
gone, the probe prints the log as one JSON list and exits.  The loop
never changes between revisions of the program.  The probe takes about
4 % of one CPU.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

#: Iterations of one probe: about 2 ms at the reference speed.
ITERATIONS = 15_000
PERIOD_S = 0.05


def reference_loop() -> int:
    """A fixed piece of interpreter work."""
    table: dict[int, int] = {}
    total = 0
    for i in range(ITERATIONS):
        total += (i * i) % 7
        table[i & 1023] = total
    return total


def stolen_ticks(cpus: set[int]) -> int:
    """Ticks the hypervisor has taken from ``cpus`` (``/proc/stat``)."""
    names = {f"cpu{c}" for c in cpus}
    total = 0
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] in names:
                total += int(fields[8])
    return total


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    cpus = os.sched_getaffinity(0)
    samples = []
    while not stopping and os.getppid() == parent:
        stolen = stolen_ticks(cpus)
        t0, cpu0 = time.perf_counter(), time.thread_time()
        reference_loop()
        samples.append((t0, time.thread_time() - cpu0, stolen))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
