"""Kernel backends, and bit-identity of kernel runs with the Python loops.

``count`` and ``batch`` (and their ``count-jit``/``batch-jit`` names)
run on the compiled kernels whenever a native backend exists.  The
kernels consume the same pre-drawn random buffers the pure-Python
loops draw, so a kernel run must be *bit-identical* to the same run on
the Python ``JumpChain``/batch loop — same counts, interaction totals,
milestones, convergence flags.  The references below run with the
kernel backend forced to ``python``, under which sessions keep their
own Python loops.  The tests pin that equality across seeds, protocols,
slicing, budget exhaustion and callbacks, and pass with no native
toolchain at all.
"""

from __future__ import annotations

import gc
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import (
    BatchEngine,
    CountBasedEngine,
    JitBatchEngine,
    JitCountEngine,
    KernelBuildError,
    SessionState,
    get_kernels,
    reset_kernels,
)
from repro.engine.count_based import JumpChain, KernelJumpChain
from repro.engine.kernels import KERNEL_ENV, _build_cc, _find_cc, session_kernels
from repro.protocols import (
    leader_election,
    uniform_bipartition,
    uniform_k_partition,
)

def _science(result) -> tuple:
    """Everything except engine name and wall time."""
    return (
        result.interactions,
        result.effective_interactions,
        result.converged,
        result.silent,
        tuple(result.final_counts.tolist()),
        tuple(result.tracked_milestones),
    )


@pytest.fixture
def python_backend(monkeypatch):
    """Force the pure-Python kernel backend for one test."""
    monkeypatch.setenv(KERNEL_ENV, "python")
    reset_kernels()
    yield
    reset_kernels()


@pytest.fixture(autouse=True, scope="module")
def _restore_kernels():
    yield
    reset_kernels()


@contextmanager
def python_loops():
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


def python_run(engine, *args, **kwargs):
    """``engine.run`` on the pure-Python loop (the reference)."""
    with python_loops():
        return engine.run(*args, **kwargs)


native = pytest.mark.skipif(
    not get_kernels().native, reason="no native kernel backend"
)


class TestBackendSelection:
    def test_get_kernels_caches(self):
        reset_kernels()
        assert get_kernels() is get_kernels()

    def test_forced_python_backend(self, python_backend):
        kernels = get_kernels()
        assert kernels.backend == "python"
        assert not kernels.native
        assert kernels.compile_seconds == 0.0

    def test_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "warp-drive")
        reset_kernels()
        with pytest.raises(KernelBuildError, match="warp-drive"):
            get_kernels()
        reset_kernels()

    def test_forced_numba_raises_without_numba(self, monkeypatch):
        # numba was a backend once; naming it now fails like any typo,
        # whether or not numba is installed.
        monkeypatch.setenv(KERNEL_ENV, "numba")
        reset_kernels()
        with pytest.raises(KernelBuildError, match="numba"):
            get_kernels()
        reset_kernels()

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    def test_cc_backend_builds_and_is_cached(self):
        first = _build_cc()
        assert first.backend == "cc"
        # Second build loads the cached shared object: no recompilation.
        second = _build_cc()
        assert second.backend == "cc"
        assert second.compile_seconds <= first.compile_seconds + 1.0

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    def test_cc_bind_checks_dtype_and_layout(self):
        bind = _build_cc().bind
        with pytest.raises(TypeError, match="int64 or float64"):
            bind(np.zeros(4, dtype=np.int32))
        with pytest.raises(TypeError, match="C-contiguous"):
            bind(np.zeros(8, dtype=np.int64)[::2])
        with pytest.raises(TypeError, match="1-D"):
            bind(np.zeros((2, 2), dtype=np.int64))
        array = np.zeros(3, dtype=np.int64)
        bound = bind(array)
        array[1] = 7  # a bound array sees in-place writes
        assert list(bound) == [0, 7, 0]


PROTOCOLS = {
    "k3": (uniform_k_partition(3), 300, "g3"),
    "bipartition": (uniform_bipartition(), 121, "g2"),
    "leader": (leader_election(), 90, None),
}


COUNT_ENGINES = (CountBasedEngine, JitCountEngine)
BATCH_ENGINES = (BatchEngine, JitBatchEngine)


class TestCountTierIdentity:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_count_tier(self, name, seed):
        proto, n, track = PROTOCOLS[name]
        reference = python_run(
            CountBasedEngine(), proto, n, seed=seed, track_state=track
        )
        for engine_cls in COUNT_ENGINES:
            result = engine_cls().run(proto, n, seed=seed, track_state=track)
            assert _science(result) == _science(reference)
            assert result.engine == engine_cls.name

    @pytest.mark.parametrize("seed", [0, 3])
    def test_budget_exhaustion_parity(self, seed):
        proto, n, track = PROTOCOLS["k3"]
        kwargs = dict(seed=seed, track_state=track, max_interactions=5000)
        reference = python_run(CountBasedEngine(), proto, n, **kwargs)
        assert reference.interactions == 5000
        for engine_cls in COUNT_ENGINES:
            result = engine_cls().run(proto, n, **kwargs)
            assert _science(result) == _science(reference)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_python_backend_identical(self, seed):
        """Without a native backend, count runs its own loop, and its
        records equal the auto-backend run."""
        proto, n, track = PROTOCOLS["k3"]
        for engine_cls in COUNT_ENGINES:
            auto = engine_cls().run(proto, n, seed=seed, track_state=track)
            with python_loops():
                session = engine_cls().start(proto, n, seed=seed, track_state=track)
                assert type(session._chain) is JumpChain
                session.advance()
            assert _science(session.result()) == _science(auto)

    @pytest.mark.parametrize("cut", [7, 97])
    def test_sliced_with_snapshots_equals_straight_python_tier(self, cut):
        proto, n, track = PROTOCOLS["k3"]
        straight = python_run(CountBasedEngine(), proto, n, seed=5, track_state=track)
        for engine_cls in COUNT_ENGINES:
            engine = engine_cls()
            session = engine.start(proto, n, seed=5, track_state=track)
            while not session.advance(cut).terminal:
                blob = session.snapshot().to_bytes()
                session = engine.start(proto, n, seed=99, track_state=track)
                session.restore(SessionState.from_bytes(blob))
            assert _science(session.result()) == _science(straight)

    def test_callback_forces_python_loop(self):
        proto, n, _ = PROTOCOLS["k3"]
        seen_reference: list[int] = []
        reference = python_run(
            CountBasedEngine(), proto, n, seed=1,
            on_effective=lambda i, c: seen_reference.append(i),
        )
        for engine_cls in COUNT_ENGINES:
            seen: list[int] = []
            session = engine_cls().start(
                proto, n, seed=1, on_effective=lambda i, c: seen.append(i)
            )
            assert type(session._chain) is JumpChain  # the Python loop
            session.advance()
            assert _science(session.result()) == _science(reference)
            assert seen == seen_reference

    @native
    def test_kernel_chain_used_when_eligible(self):
        proto, n, _ = PROTOCOLS["k3"]
        for engine_cls in COUNT_ENGINES:
            session = engine_cls().start(proto, n, seed=0)
            assert isinstance(session._chain, KernelJumpChain)

    def test_predicate_without_signature_keeps_python_loop(self):
        proto = uniform_k_partition(3)
        proto._signature_factory = None
        session = CountBasedEngine().start(proto, 30, seed=0)
        assert type(session._chain) is JumpChain

    def test_driven_pair_then_advance_matches_python_loop(self):
        """A pair applied through the Fenwick view reaches the kernel."""
        proto, n, track = PROTOCOLS["k3"]

        def drive() -> tuple:
            session = CountBasedEngine().start(proto, n, seed=8, track_state=track)
            session.advance(50)
            chain = session._chain
            r = next(r for r, w in enumerate(chain.weights.to_list()) if w)
            cls = chain.classes[r]
            assert session.apply_scheduled(0, 1, cls.in1, cls.in2)
            assert session.audit() is None
            session.advance()
            assert session.audit() is None
            return _science(session.result())

        with python_loops():
            reference = drive()
        assert drive() == reference


class TestBatchTierIdentity:
    # The batch loop simulates every null interaction: keep n small.
    BUDGET = dict(max_interactions=30_000)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_batch_tier(self, name, seed):
        proto, n, track = PROTOCOLS[name]
        n = min(n, 72)
        kwargs = dict(seed=seed, track_state=track, **self.BUDGET)
        reference = python_run(BatchEngine(), proto, n, **kwargs)
        for engine_cls in BATCH_ENGINES:
            result = engine_cls().run(proto, n, **kwargs)
            assert _science(result) == _science(reference)
            assert result.engine == engine_cls.name

    @pytest.mark.parametrize("seed", [0, 3])
    def test_budget_exhaustion_parity(self, seed):
        proto, _, track = PROTOCOLS["k3"]
        kwargs = dict(seed=seed, track_state=track, max_interactions=500)
        reference = python_run(BatchEngine(), proto, 72, **kwargs)
        assert reference.interactions == 500
        for engine_cls in BATCH_ENGINES:
            result = engine_cls().run(proto, 72, **kwargs)
            assert _science(result) == _science(reference)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_python_backend_identical(self, seed):
        """Without a native backend, batch runs its own loop, and its
        records equal the auto-backend run."""
        proto, _, track = PROTOCOLS["k3"]
        kwargs = dict(seed=seed, track_state=track, **self.BUDGET)
        for engine_cls in BATCH_ENGINES:
            auto = engine_cls().run(proto, 72, **kwargs)
            with python_loops():
                session = engine_cls().start(proto, 72, **kwargs)
                assert session._kernel_plan is None
                session.advance()
            assert _science(session.result()) == _science(auto)

    @pytest.mark.parametrize("cut", [13, 512])
    def test_sliced_with_snapshots_equals_straight_python_tier(self, cut):
        proto, _, track = PROTOCOLS["k3"]
        kwargs = dict(track_state=track, **self.BUDGET)
        straight = python_run(BatchEngine(), proto, 72, seed=5, **kwargs)
        for engine_cls in BATCH_ENGINES:
            engine = engine_cls()
            session = engine.start(proto, 72, seed=5, **kwargs)
            while not session.advance(cut).terminal:
                blob = session.snapshot().to_bytes()
                session = engine.start(proto, 72, seed=99, **kwargs)
                session.restore(SessionState.from_bytes(blob))
            assert _science(session.result()) == _science(straight)

    def test_callback_forces_python_loop(self):
        proto, _, _ = PROTOCOLS["k3"]
        for engine_cls in BATCH_ENGINES:
            session = engine_cls().start(
                proto, 72, seed=1, on_effective=lambda i, c: None
            )
            assert session._kernel_plan is None

    @native
    def test_kernel_used_when_eligible(self):
        proto, _, _ = PROTOCOLS["k3"]
        for engine_cls in BATCH_ENGINES:
            assert engine_cls().start(proto, 72, seed=0)._kernel_plan is not None


class TestSharedPlans:
    @native
    def test_plans_cached_per_n_over_tables_bound_once(self):
        proto = uniform_k_partition(3)
        plan = session_kernels(proto, 40, None)
        assert session_kernels(proto, 40, None) is plan
        other = session_kernels(proto, 41, None)
        assert other is not plan
        shared = len(proto.compiled.class_tables.arrays)
        for a, b in zip(plan.jump_tables[:shared], other.jump_tables[:shared]):
            assert a is b
        assert plan.pair_tables[0] == other.pair_tables[0]
        assert plan.jump_tables[shared:] != other.jump_tables[shared:]

    @native
    def test_collected_protocol_frees_its_plans_at_once(self):
        """Plans and bound tables form no reference cycle of their own,
        so the collection that frees a protocol frees them too, instead
        of leaving them for a later (often gen-2) pass."""
        proto = uniform_k_partition(3)
        CountBasedEngine().run(proto, 40, seed=0)
        BatchEngine().run(proto, 40, seed=0, max_interactions=2_000)
        plan = weakref.ref(session_kernels(proto, 40, None))
        del proto
        gc.collect()
        assert plan() is None

    def test_threads_build_and_share_plans(self):
        """Sessions of one fresh protocol started from many threads at
        once share its kernel plan and reproduce the serial results."""
        kwargs = dict(track_state="g3", max_interactions=20_000)
        serial_proto = uniform_k_partition(3)
        serial = [
            _science(engine.run(serial_proto, 40, seed=seed, **kwargs))
            for engine in (CountBasedEngine(), BatchEngine())
            for seed in range(12)
        ]
        proto = uniform_k_partition(3)

        def run(engine, seed):
            return _science(engine.run(proto, 40, seed=seed, **kwargs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(run, engine, seed)
                    for engine in (CountBasedEngine(), BatchEngine())
                    for seed in range(12)
                ]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestSignatureAgreement:
    """The declarative signature must decide exactly like the predicate
    on every configuration a run visits (including the initial one)."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n_off", [0, 1, 2, 3])
    def test_signature_matches_predicate_along_trajectories(self, name, n_off):
        proto, n, _ = PROTOCOLS[name]
        n = min(n, 60) + n_off
        pred = proto.stability_predicate(n)
        sig = proto.stability_signature(n)
        assert pred is not None and sig is not None

        visited = []

        def watch(i, counts):
            visited.append(list(counts))

        CountBasedEngine().run(
            proto, n, seed=2, on_effective=watch, max_interactions=50_000
        )
        assert visited
        for counts in visited:
            assert sig.evaluate(counts) == pred(counts), counts

    def test_signature_arrays_are_csr(self):
        proto, n, _ = PROTOCOLS["k3"]
        off, idx, want = proto.stability_signature(n).arrays()
        assert off[0] == 0 and off[-1] == len(idx)
        assert len(off) == len(want) + 1
        assert (off[1:] >= off[:-1]).all()
