"""Native-speed kernels for the two hot loops, with graceful fallback.

The jump-chain inner loop (:class:`~repro.engine.count_based.JumpChain`)
and the batch engine's pair-draw/apply loop
(:class:`~repro.engine.batch.BatchSession`) spend their time in tight
integer arithmetic that pure Python executes one bytecode at a time.
This module provides the same two loops as *kernels* — allocation-free
state machines over flat int64/float64 arrays — written in C, compiled
once per source hash with the system C compiler (``cc``/``gcc``) into
a cached shared object and called through :mod:`ctypes`.

Two backends exist:

``cc``
    The compiled kernels.  Used when a C compiler is available.
``python``
    No kernels at all: sessions keep their own Python loops (see
    :func:`session_kernels`).  The fallback when no C compiler is
    found, and the reference every bit-identity test compares against.

Backend selection is automatic (``cc`` → ``python``) and can be forced
with the ``REPRO_KERNEL`` environment variable (``auto|cc|python``);
forcing an unavailable backend fails loudly instead of silently
degrading.

The ``count`` and ``batch`` sessions (and their ``count-jit`` and
``batch-jit`` names) run on these kernels whenever
:func:`session_kernels` finds a native backend the run can use.
Every kernel array goes through :attr:`KernelSet.bind` once — a
protocol's tables once per :class:`KernelTables`, its stability CSR
once per :class:`KernelPlan` (one per population size), a session's
own buffers when it allocates them — so the dtype and contiguity check
is not repeated on every call.

Bit-identity discipline
-----------------------
Kernels never draw randomness.  They consume the pre-drawn buffers the
sessions already own (and already snapshot) and return
:data:`KERNEL_REFILL` when a buffer runs dry; the Python wrapper — the
sole owner of the ``numpy`` Generator — refills at exactly the stream
positions the Python loop would have and re-enters.  Combined with
exact integer weight arithmetic (all prefix sums stay far below 2**53,
so the ``double`` comparisons below are exact) and the shared libm
``log``/``log1p``, a kernel run is bit-identical to its Python loop:
same counts, same interaction totals, same milestones, same consumed
random stream.  The parity tests compare kernel runs with the Python
loops end to end, and ``conform diff`` drives the kernel sessions'
data structures against the name-level oracle.

The declarative stability test consumed here is
:class:`~repro.core.protocol.StabilitySignature` in CSR form
(``sig_off``/``sig_idx``/``sig_want``); an empty signature means
"silence is the stability criterion".
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
import weakref
from collections.abc import Callable
from functools import cached_property
from pathlib import Path

import numpy as np

from ..core.compiler import CompiledProtocol
from ..core.protocol import Protocol
from ..obs.instruments import record_kernel_compile

__all__ = [
    "KernelSet",
    "KernelBuildError",
    "get_kernels",
    "reset_kernels",
    "session_kernels",
    "stability_csr",
    "KernelPlan",
    "KernelTables",
    "KERNEL_REFILL",
    "KERNEL_PAUSE",
    "KERNEL_CONVERGED",
    "KERNEL_SILENT",
    "KERNEL_EXHAUSTED",
]

#: Environment variable forcing a backend: ``auto|cc|python``.
KERNEL_ENV = "REPRO_KERNEL"

#: Status codes the kernels return (values mirrored in the C source).
KERNEL_REFILL = 0     #: random buffer exhausted — refill and re-enter
KERNEL_PAUSE = 1      #: slice target reached
KERNEL_CONVERGED = 2  #: stability signature satisfied
KERNEL_SILENT = 3     #: total active weight hit zero (no signature match)
KERNEL_EXHAUSTED = 4  #: interaction budget ran out mid-skip

#: Weights (at most ``T = n(n-1)``) must stay below this for the
#: kernels' double comparisons to be exact.
_EXACT_LIMIT = 2**53


class KernelBuildError(RuntimeError):
    """A forced kernel backend is unavailable or failed to build."""


# ----------------------------------------------------------------------
# C source (the ``cc`` backend)
# ----------------------------------------------------------------------
# ``jump_chain`` is JumpChain.advance and ``pair_block`` is
# BatchSession's pair loop, step for step and draw for draw.  Each
# resumes from and saves to ``reg`` (pos, interactions, effective, W,
# high_water, ms_len) and reports why it stopped; ``track < 0`` means
# untracked.  A geometric null skip of 9e18 or more certainly exceeds
# any budget (budgets are at most 2**62) and guards the double->int64
# conversion.  No -ffast-math: log/log1p must be the same libm calls
# CPython's math module makes, and the weight comparisons rely on exact
# double conversion of integers below 2**53.
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define K_REFILL 0
#define K_PAUSE 1
#define K_CONVERGED 2
#define K_SILENT 3
#define K_EXHAUSTED 4

static int sig_holds(const int64_t *counts, const int64_t *sig_off,
                     const int64_t *sig_idx, const int64_t *sig_want,
                     int64_t n_sig) {
    for (int64_t g = 0; g < n_sig; g++) {
        int64_t total = 0;
        for (int64_t i = sig_off[g]; i < sig_off[g + 1]; i++)
            total += counts[sig_idx[i]];
        if (total != sig_want[g]) return 0;
    }
    return 1;
}

int64_t jump_chain(int64_t *counts, int64_t *values,
                   const int64_t *in1, const int64_t *in2,
                   const int64_t *out1, const int64_t *out2,
                   const int64_t *same, const int64_t *mult,
                   const int64_t *aff_off, const int64_t *aff_idx,
                   const int64_t *sig_off, const int64_t *sig_idx,
                   const int64_t *sig_want, int64_t n_sig,
                   const double *rand_buf, int64_t nrand,
                   int64_t *ms_buf, int64_t *reg,
                   int64_t R, int64_t T, int64_t target,
                   int64_t budget, int64_t track) {
    int64_t pos = reg[0];
    int64_t interactions = reg[1];
    int64_t effective = reg[2];
    int64_t W = reg[3];
    int64_t high_water = reg[4];
    int64_t ms_len = 0;
    int64_t status = K_PAUSE;
    for (;;) {
        if (n_sig > 0 && sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)) {
            status = K_CONVERGED;
            break;
        }
        if (W == 0) { status = K_SILENT; break; }
        if (interactions >= target) { status = K_PAUSE; break; }
        if (pos >= nrand - 2) { status = K_REFILL; break; }

        int64_t nulls;
        if (W >= T) {
            nulls = 0;
        } else {
            double u = 1.0 - rand_buf[pos];
            pos += 1;
            double dn = log(u) / log1p(-((double)W / (double)T));
            if (dn >= 9.0e18) {
                interactions = budget;
                status = K_EXHAUSTED;
                break;
            }
            nulls = (int64_t)dn;
        }
        if (interactions + nulls + 1 > budget) {
            interactions = budget;
            status = K_EXHAUSTED;
            break;
        }
        interactions += nulls + 1;

        double x = rand_buf[pos] * (double)W;
        pos += 1;
        int64_t r = R - 1;
        int64_t cum = 0;
        for (int64_t j = 0; j < R; j++) {
            cum += values[j];
            if (x < (double)cum) { r = j; break; }
        }

        counts[in1[r]] -= 1;
        counts[in2[r]] -= 1;
        counts[out1[r]] += 1;
        counts[out2[r]] += 1;
        effective += 1;

        for (int64_t t = aff_off[r]; t < aff_off[r + 1]; t++) {
            int64_t j = aff_idx[t];
            int64_t w;
            if (same[j] != 0) {
                int64_t c = counts[in1[j]];
                w = c * (c - 1);
            } else {
                w = mult[j] * counts[in1[j]] * counts[in2[j]];
            }
            W += w - values[j];
            values[j] = w;
        }

        if (track >= 0) {
            int64_t cur = counts[track];
            while (high_water < cur) {
                high_water += 1;
                ms_buf[ms_len++] = interactions;
            }
        }
    }
    reg[0] = pos;
    reg[1] = interactions;
    reg[2] = effective;
    reg[3] = W;
    reg[4] = high_water;
    reg[5] = ms_len;
    return status;
}

int64_t pair_block(int64_t *states, int64_t *counts, const int64_t *dflat,
                   const int64_t *in1, const int64_t *in2,
                   const int64_t *same, const int64_t *mult,
                   int64_t *weights,
                   const int64_t *pq_off, const int64_t *pq_idx,
                   const int64_t *sig_off, const int64_t *sig_idx,
                   const int64_t *sig_want, int64_t n_sig,
                   const int64_t *buf_a, const int64_t *buf_b, int64_t n_buf,
                   int64_t *ms_buf, int64_t *reg,
                   int64_t S, int64_t target, int64_t track) {
    int64_t pos = reg[0];
    int64_t interactions = reg[1];
    int64_t effective = reg[2];
    int64_t W = reg[3];
    int64_t high_water = reg[4];
    int64_t ms_len = 0;
    int64_t status = K_PAUSE;

    int stable = (n_sig > 0)
        ? sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)
        : (W == 0);
    if (stable) {
        status = K_CONVERGED;
    } else {
        while (interactions < target) {
            if (pos >= n_buf) { status = K_REFILL; break; }
            int64_t a = buf_a[pos];
            int64_t b = buf_b[pos];
            pos += 1;
            interactions += 1;
            int64_t p = states[a];
            int64_t q = states[b];
            int64_t pq = p * S + q;
            int64_t out = dflat[pq];
            if (out == pq) continue;
            int64_t p2 = out / S;
            int64_t q2 = out % S;
            states[a] = p2;
            states[b] = q2;
            counts[p] -= 1;
            counts[q] -= 1;
            counts[p2] += 1;
            counts[q2] += 1;
            effective += 1;

            for (int64_t t = pq_off[pq]; t < pq_off[pq + 1]; t++) {
                int64_t j = pq_idx[t];
                int64_t w;
                if (same[j] != 0) {
                    int64_t c = counts[in1[j]];
                    w = c * (c - 1);
                } else {
                    w = mult[j] * counts[in1[j]] * counts[in2[j]];
                }
                W += w - weights[j];
                weights[j] = w;
            }

            if (track >= 0) {
                int64_t cur = counts[track];
                while (high_water < cur) {
                    high_water += 1;
                    ms_buf[ms_len++] = interactions;
                }
            }

            stable = (n_sig > 0)
                ? sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)
                : (W == 0);
            if (stable) { status = K_CONVERGED; break; }
        }
    }
    reg[0] = pos;
    reg[1] = interactions;
    reg[2] = effective;
    reg[3] = W;
    reg[4] = high_water;
    reg[5] = ms_len;
    return status;
}
"""


# ----------------------------------------------------------------------
# Backend construction
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class KernelSet:
    """The active pair of kernels and the backend that produced them.

    Every array argument of :attr:`jump_chain` and :attr:`pair_block`
    must first go through :attr:`bind`, which checks it once and
    returns the form the backend's calls take.  A bound array stays
    valid for as long as the array itself; refill it in place, or bind
    its replacement.  The ``python`` set has no kernels.
    """

    backend: str  # "cc" | "python"
    jump_chain: Callable | None = None
    pair_block: Callable | None = None
    compile_seconds: float = 0.0
    bind: Callable[[np.ndarray], object] | None = None

    @property
    def native(self) -> bool:
        """Whether the set has kernels (which run as machine code)."""
        return self.backend != "python"


def _cc_cache_dir() -> Path:
    uid = getattr(os, "getuid", lambda: 0)()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _find_cc() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build_cc() -> KernelSet:
    compiler = _find_cc()
    if compiler is None:
        raise KernelBuildError("cc backend unavailable: no C compiler on PATH")
    t0 = time.perf_counter()
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cc_cache_dir()
    so_path = cache / f"kernels-{digest}.so"
    if not so_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        c_path = cache / f"kernels-{digest}.c"
        c_path.write_text(_C_SOURCE)
        tmp_so = cache / f"kernels-{digest}.{os.getpid()}.so"
        cmd = [compiler, "-O2", "-fPIC", "-shared", str(c_path), "-o", str(tmp_so), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp_so, so_path)  # atomic under concurrent builders
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise KernelBuildError(f"could not load compiled kernels: {exc}") from exc

    i64 = ctypes.c_int64
    # Typed pointers: ctypes rejects a bound float64 array in an int64
    # slot (and vice versa) on every call, at C speed.
    arr = ctypes.POINTER(ctypes.c_int64)
    farr = ctypes.POINTER(ctypes.c_double)

    lib.jump_chain.restype = i64
    lib.jump_chain.argtypes = [
        arr, arr, arr, arr, arr, arr, arr, arr,  # counts..mult
        arr, arr,                                # aff CSR
        arr, arr, arr, i64,                      # sig CSR + n_sig
        farr, i64,                               # rand_buf + nrand
        arr, arr,                                # ms_buf, reg
        i64, i64, i64, i64, i64,                 # R, T, target, budget, track
    ]
    lib.pair_block.restype = i64
    lib.pair_block.argtypes = [
        arr, arr, arr,                           # states, counts, dflat
        arr, arr, arr, arr, arr,                 # in1, in2, same, mult, weights
        arr, arr,                                # pq CSR
        arr, arr, arr, i64,                      # sig CSR + n_sig
        arr, arr, i64,                           # buf_a, buf_b, n_buf
        arr, arr,                                # ms_buf, reg
        i64, i64, i64,                           # S, target, track
    ]

    def jump_chain(counts, values, in1, in2, out1, out2, same, mult,
                   aff_off, aff_idx, sig_off, sig_idx, sig_want,
                   rand_buf, ms_buf, reg, T, target, budget, track):
        return lib.jump_chain(
            counts, values, in1, in2, out1, out2, same, mult,
            aff_off, aff_idx, sig_off, sig_idx, sig_want, len(sig_want),
            rand_buf, len(rand_buf), ms_buf, reg,
            len(values), T, target, budget, track,
        )

    def pair_block(states, counts, dflat, in1, in2, same, mult, weights,
                   pq_off, pq_idx, sig_off, sig_idx, sig_want,
                   buf_a, buf_b, ms_buf, reg, S, target, track):
        return lib.pair_block(
            states, counts, dflat, in1, in2, same, mult, weights,
            pq_off, pq_idx, sig_off, sig_idx, sig_want, len(sig_want),
            buf_a, buf_b, len(buf_a), ms_buf, reg, S, target, track,
        )

    return KernelSet(
        "cc", jump_chain, pair_block, time.perf_counter() - t0, _bind_cc
    )


_CTYPES_ELEMENT = {
    np.dtype(np.int64): ctypes.c_int64,
    np.dtype(np.float64): ctypes.c_double,
}


def _bind_cc(array: np.ndarray) -> ctypes.Array:
    """A ctypes array over ``array``'s memory (no copy).

    The check ``ndpointer`` argtypes would make on every call, made
    once: a 1-D C-contiguous int64 or float64 array.  The ctypes array
    keeps ``array`` alive and sees every in-place write to it.
    """
    element = _CTYPES_ELEMENT.get(array.dtype)
    if element is None or array.ndim != 1 or not array.flags.c_contiguous:
        raise TypeError(
            "kernel arrays must be 1-D C-contiguous int64 or float64, got "
            f"{array.dtype} with shape {array.shape}"
        )
    return (element * array.shape[0]).from_buffer(array)


def _build_python() -> KernelSet:
    return KernelSet("python")


_BUILDERS = {"cc": _build_cc, "python": _build_python}

_ACTIVE: KernelSet | None = None


def _build(mode: str) -> KernelSet:
    if mode == "auto":
        try:
            built = _build_cc()
        except KernelBuildError:
            built = _build_python()
    elif mode in _BUILDERS:
        built = _BUILDERS[mode]()
    else:
        raise KernelBuildError(
            f"{KERNEL_ENV}={mode!r} is not a kernel backend; "
            f"choose auto, {', '.join(_BUILDERS)}"
        )
    if built.native:
        record_kernel_compile(built.backend, built.compile_seconds)
    return built


def get_kernels() -> KernelSet:
    """The process-wide :class:`KernelSet` (built on first use).

    Selection honours ``REPRO_KERNEL``: ``auto`` (default) tries
    ``cc``, then falls back to ``python``; naming a backend demands
    exactly that one and raises :class:`KernelBuildError` when it
    cannot be built.
    """
    global _ACTIVE
    if _ACTIVE is None:
        mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
        _ACTIVE = _build(mode)
    return _ACTIVE


def reset_kernels() -> None:
    """Drop the cached :class:`KernelSet` (tests switching backends)."""
    global _ACTIVE
    _ACTIVE = None


def stability_csr(
    protocol: Protocol, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The stability test for ``n`` in the CSR form kernels evaluate.

    The :meth:`~repro.core.protocol.StabilitySignature.arrays` of the
    protocol's signature; three empty arrays when it has no stability
    predicate (silence is then the criterion); None when the predicate
    has no signature, so no kernel can run it.
    """
    if protocol.stability_predicate(n) is None:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(1, dtype=np.int64), empty, empty.copy()
    signature = protocol.stability_signature(n)
    # An empty signature would read as "test silence instead".
    if signature is None or not signature.groups:
        return None
    return signature.arrays()


class KernelTables:
    """One protocol's class and rule tables, bound once for a kernel set.

    Shared by the :class:`KernelPlan` of every population size the
    protocol runs at.
    """

    def __init__(self, kernels: KernelSet, compiled: CompiledProtocol) -> None:
        self.kernels = kernels
        self._compiled = compiled

    @cached_property
    def jump(self) -> tuple:
        """Bound ``in1, in2, out1, out2, same, mult, aff_off, aff_idx``."""
        return tuple(map(self.kernels.bind, self._compiled.class_tables.arrays))

    @cached_property
    def pair(self) -> tuple[tuple, tuple]:
        """Bound ``(dflat, in1, in2, same, mult)`` and ``(pq_off, pq_idx)``."""
        bind = self.kernels.bind
        pair = self._compiled.pair_tables
        in1, in2, _, _, same, mult, _, _ = self.jump
        return (bind(pair.delta), in1, in2, same, mult), (
            bind(pair.pq_off), bind(pair.pq_idx)
        )


class KernelPlan:
    """The kernel inputs of one ``(protocol, n)``, bound once.

    Sessions bind only their own buffers; the class and rule tables
    come from the protocol's :class:`KernelTables`, and the stability
    CSR at ``n`` is bound here, a single time per plan instead of once
    per trial.
    """

    def __init__(
        self,
        tables: KernelTables,
        signature: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self.kernels = tables.kernels
        self.signature = signature
        self._tables = tables

    @cached_property
    def _bound_signature(self) -> tuple:
        return tuple(map(self.kernels.bind, self.signature))

    @cached_property
    def jump_tables(self) -> tuple:
        """Bound ``in1 .. aff_idx, sig_off, sig_idx, sig_want``: the
        ``jump_chain`` arguments between ``values`` and ``rand_buf``."""
        return (*self._tables.jump, *self._bound_signature)

    @cached_property
    def pair_tables(self) -> tuple[tuple, tuple]:
        """Bound ``(dflat, in1, in2, same, mult)`` and ``(pq_off, pq_idx,
        sig_off, sig_idx, sig_want)``: the ``pair_block`` arguments
        either side of ``weights``."""
        rules, dirty = self._tables.pair
        return rules, (*dirty, *self._bound_signature)


#: Per protocol (held weakly): its tables bound for the active kernel
#: set, and its plan per population size (None when no kernel can run
#: it).  Plans point at the tables, never the reverse: with no cycle
#: of their own, they go in the same collection as their protocol.
_TABLES: weakref.WeakKeyDictionary[
    Protocol, tuple[KernelTables, dict[int, KernelPlan | None]]
] = weakref.WeakKeyDictionary()
_TABLES_LOCK = threading.Lock()
_UNBUILT = object()


def session_kernels(
    protocol: Protocol, n: int, on_effective: object
) -> KernelPlan | None:
    """The kernel plan a session of ``protocol`` at ``n`` can run on.

    None when the session must keep its own Python loop: it has an
    ``on_effective`` callback (kernels cannot call back out),
    ``n(n-1)`` is too large for exact double comparisons, no native
    backend exists, or its predicate has no
    :class:`~repro.core.protocol.StabilitySignature`.  Plans are built
    once per ``(protocol, n)`` and kernel set, over tables bound once
    per protocol.
    """
    if on_effective is not None or n * (n - 1) >= _EXACT_LIMIT:
        return None
    kernels = get_kernels()
    if not kernels.native:
        return None
    with _TABLES_LOCK:
        entry = _TABLES.get(protocol)
        if entry is None or entry[0].kernels is not kernels:
            entry = _TABLES[protocol] = (
                KernelTables(kernels, protocol.compiled), {}
            )
        tables, plans = entry
        plan = plans.get(n, _UNBUILT)
        if plan is _UNBUILT:
            signature = stability_csr(protocol, n)
            plan = None if signature is None else KernelPlan(tables, signature)
            plans[n] = plan
        return plan
