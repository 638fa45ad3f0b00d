"""Seeded workload inputs.  Pure stdlib: the HTTP client imports it too.

Job sizes are stratified rather than drawn independently: the n values
of a round are an evenly spaced grid, shuffled by the seed, and every
block of four neighbouring sizes holds exactly one ``count-jit`` job.
The seed still decides which job gets which size, engine, k and seed,
but the total work of a round barely moves between seeds, so the
spread between runs measures the program rather than the draw.
"""

from __future__ import annotations

import hashlib
import random

PROTOCOL = "uniform-k-partition"

#: Job shape of one campaign-http round (the service path).
HTTP_JOBS = 240
HTTP_TRIALS = 4
HTTP_N = (16, 64)
HTTP_KS = (3, 4)

#: Job shape of one campaign-columnar round (the CLI drain path).
COLUMNAR_JOBS = 12
COLUMNAR_TRIALS = 200
COLUMNAR_N = (6, 40)
COLUMNAR_K = 3

#: One sweep-jit round: a Figure 3 half and a scaling-law half.
FIG3 = {"ks": (4, 6, 8), "n_max": 120, "trials": 3}
SCALING = {"ks": (2, 4, 8), "n_values": (250, 500, 1000, 2000), "trials": 24}
SWEEP_ENGINE = "count-jit"


def round_seed(workload: str, seed: int, rnd: int) -> int:
    """The integer seed of round ``rnd`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{rnd}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _stratified_jobs(rng, count, n_range, ks, trials) -> list[dict]:
    lo, hi = n_range
    sizes = [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]
    jobs = []
    for block in range(0, count, 4):
        engines = ["count", "count", "count", "count-jit"]
        rng.shuffle(engines)
        block_ks = [ks[i % len(ks)] for i in range(4)]
        rng.shuffle(block_ks)
        for n, engine, k in zip(sizes[block:block + 4], engines, block_ks):
            jobs.append({
                "protocol": PROTOCOL,
                "n": n,
                "params": {"k": k},
                "trials": trials,
                "engine": engine,
                "seed": rng.randrange(2**31),
            })
    rng.shuffle(jobs)
    return jobs


def http_jobs(seed: int, rnd: int) -> list[dict]:
    """Job specs (canonical-form dicts) submitted in one campaign-http round."""
    rng = random.Random(round_seed("campaign-http", seed, rnd))
    return _stratified_jobs(rng, HTTP_JOBS, HTTP_N, HTTP_KS, HTTP_TRIALS)


def columnar_jobs(seed: int, rnd: int) -> list[dict]:
    """Job specs drained in one campaign-columnar round."""
    rng = random.Random(round_seed("campaign-columnar", seed, rnd))
    return _stratified_jobs(
        rng, COLUMNAR_JOBS, COLUMNAR_N, (COLUMNAR_K,), COLUMNAR_TRIALS
    )


def sample(seed: int, rnd: int, items: list, count: int) -> list:
    """A seeded sample of outputs to re-run in-process as a reference."""
    rng = random.Random(round_seed("reference", seed, rnd))
    return rng.sample(items, min(count, len(items)))
