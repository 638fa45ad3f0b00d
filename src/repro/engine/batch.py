"""Batched uniform-scheduler engine.

Semantically identical to
:class:`~repro.engine.agent_based.AgentBasedEngine` with the uniform
scheduler, but with the pair sampling inlined and the loop body kept
free of any indirection.  Given the same seed and block size, this
engine consumes exactly the same random stream as the agent-based
engine and therefore reproduces the *identical* execution — the test
suite uses that for cross-validation.

Use this engine for moderate workloads where per-interaction fidelity
matters (e.g. recording callbacks at exact interaction indices); use
the count-based engine when only counts and totals matter.

The loop lives in :class:`BatchSession`; snapshots carry the RNG state
and the unconsumed tail of the current pair block (see
:mod:`repro.engine.session` for the bit-identity discipline).  Whenever
:func:`~repro.engine.kernels.session_kernels` finds a native kernel the
run can use, the pair-draw/apply loop runs in the compiled
``pair_block`` kernel instead, on the same pre-drawn pair blocks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.protocol import Protocol
from ..core.rng import SeedLike
from .base import Engine, StepCallback
from .kernels import KERNEL_CONVERGED, KERNEL_REFILL, session_kernels
from .session import EngineSession

__all__ = ["BatchEngine", "BatchSession"]


class BatchSession(EngineSession):
    """Stepper for :class:`BatchEngine`: inlined uniform pair sampling
    plus incrementally maintained total active weight, in the compiled
    kernel when one applies (see the module docstring)."""

    def __init__(
        self,
        engine: "BatchEngine",
        protocol: Protocol,
        n: int | None,
        *,
        seed: SeedLike,
        initial_counts: Sequence[int] | np.ndarray | None,
        max_interactions: int | None,
        track_state: str | int | None,
        on_effective: StepCallback | None,
    ) -> None:
        super().__init__(
            engine.name,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
        compiled = protocol.compiled
        self._S = compiled.num_states
        self._dflat = compiled.delta_list
        self._classes = compiled.classes
        # pq rule key -> classes whose weight the rule can change.
        self._dirty_by_pq = compiled.pair_tables.dirty
        self._pred = protocol.stability_predicate(self._n)
        self._block = engine._block_size
        states: list[int] = []
        for idx, c in enumerate(self.counts):
            states.extend([idx] * c)
        self._states = states
        self._init_weights()
        # Unconsumed tail of the current pre-sampled pair block.
        self._buf_a: list[int] = []
        self._buf_b: list[int] = []
        self._pos = 0
        self._kernel_plan = session_kernels(protocol, self._n, on_effective)

    def _init_weights(self) -> None:
        # Total active weight, maintained incrementally: after each
        # effective interaction only the classes sharing a touched state
        # are refreshed, so the silence test is an O(1) comparison
        # instead of a rescan of every class.
        self._weights = [cls.weight(self.counts) for cls in self._classes]
        self._W = sum(self._weights)

    # ------------------------------------------------------------------
    # Stepper
    # ------------------------------------------------------------------
    def _silent_now(self) -> bool:
        return self._W == 0

    def _sample_pairs(self, take: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next ``take`` scheduled pairs from ``self._rng``.

        The uniform draw lives here (rather than inline in the loop) so
        subclasses can swap the pair distribution — the graph engine
        overrides this with edge sampling — while inheriting the whole
        advance/snapshot/driven machinery unchanged.  Called once per
        block refill, so the indirection costs nothing measurable.
        """
        rng = self._rng
        n_total = self._n
        a_arr = rng.integers(0, n_total, size=take)
        b_arr = rng.integers(0, n_total - 1, size=take)
        b_arr += b_arr >= a_arr
        return a_arr, b_arr

    def _advance_inner(self, target: int) -> None:
        if self._kernel_plan is not None:
            self._advance_kernel(target)
            return
        counts = self.counts
        states = self._states
        S = self._S
        dflat = self._dflat
        pred = self._pred
        classes = self._classes
        weights = self._weights
        W_active = self._W
        dirty_by_pq = self._dirty_by_pq
        sample_pairs = self._sample_pairs
        track = self._track
        on_effective = self._on_effective
        budget = self._budget
        block = self._block
        interactions = self.interactions
        effective = self.effective
        milestones = self.milestones
        high_water = self._high_water
        buf_a = self._buf_a
        buf_b = self._buf_b
        pos = self._pos

        def is_stable() -> bool:
            return pred(counts) if pred is not None else W_active == 0

        converged = is_stable()
        while not converged and interactions < target:
            if pos >= len(buf_a):
                take = min(block, budget - interactions)
                a_arr, b_arr = sample_pairs(take)
                buf_a = a_arr.tolist()
                buf_b = b_arr.tolist()
                pos = 0
            end = min(len(buf_a), pos + (target - interactions))
            seg_a = buf_a[pos:end]
            seg_b = buf_b[pos:end]
            before = interactions
            for a, b in zip(seg_a, seg_b):
                interactions += 1
                p = states[a]
                q = states[b]
                pq = p * S + q
                out = dflat[pq]
                if out == pq:
                    continue
                p2, q2 = divmod(out, S)
                states[a] = p2
                states[b] = q2
                counts[p] -= 1
                counts[q] -= 1
                counts[p2] += 1
                counts[q2] += 1
                effective += 1
                for j in dirty_by_pq[pq]:
                    w = classes[j].weight(counts)
                    W_active += w - weights[j]
                    weights[j] = w
                if track is not None:
                    cur = counts[track]
                    while high_water < cur:
                        high_water += 1
                        milestones.append(interactions)
                if on_effective is not None:
                    on_effective(interactions, counts)
                if is_stable():
                    converged = True
                    break
            pos += interactions - before

        self._buf_a = buf_a
        self._buf_b = buf_b
        self._pos = pos
        self._W = W_active
        self.interactions = interactions
        self.effective = effective
        self._high_water = high_water
        self._converged = converged

    def _advance_kernel(self, target: int) -> None:
        """:meth:`_advance_inner` with the loop in the ``pair_block`` kernel."""
        kernels = self._kernel_plan.kernels
        bind = kernels.bind
        rules, dirty = self._kernel_plan.pair_tables
        i64 = np.int64
        counts_arr = np.asarray(self.counts, dtype=i64)
        states_arr = np.asarray(self._states, dtype=i64)
        weights_arr = np.asarray(self._weights, dtype=i64)
        buf_a = np.asarray(self._buf_a, dtype=i64)
        buf_b = np.asarray(self._buf_b, dtype=i64)
        ms_buf = np.zeros(self._n + 2, dtype=i64)
        reg = np.asarray(
            [self._pos, self.interactions, self.effective, self._W,
             self._high_water, 0],
            dtype=i64,
        )
        head = (
            bind(states_arr), bind(counts_arr), *rules, bind(weights_arr), *dirty
        )
        tail = (bind(ms_buf), bind(reg))
        track = -1 if self._track is None else self._track
        kern = kernels.pair_block
        while True:
            status = kern(
                *head, bind(buf_a), bind(buf_b), *tail, self._S, target, track
            )
            ms_len = int(reg[5])
            if ms_len:
                self.milestones.extend(ms_buf[:ms_len].tolist())
            if status != KERNEL_REFILL:
                break
            # Same block draw the pure-Python loop makes, at the same
            # interaction count: identical random stream.
            a_arr, b_arr = self._sample_pairs(
                min(self._block, self._budget - int(reg[1]))
            )
            buf_a = np.ascontiguousarray(a_arr, dtype=i64)
            buf_b = np.ascontiguousarray(b_arr, dtype=i64)
            reg[0] = 0

        self._states = states_arr.tolist()
        self.counts[:] = counts_arr.tolist()
        self._weights = weights_arr.tolist()
        self._buf_a = buf_a.tolist()
        self._buf_b = buf_b.tolist()
        (self._pos, self.interactions, self.effective, self._W,
         self._high_water, _) = reg.tolist()
        self._converged = status == KERNEL_CONVERGED

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        return {
            "counts": list(self.counts),
            "states": list(self._states),
            "rng": self._rng_state(self._rng),
            "buf_a": self._buf_a[self._pos:],
            "buf_b": self._buf_b[self._pos:],
        }

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        self._states = list(extra["states"])
        self._rng = self._rng_from_state(extra["rng"])
        self._buf_a = list(extra["buf_a"])
        self._buf_b = list(extra["buf_b"])
        self._pos = 0
        # Weights are a pure function of the counts: recompute instead
        # of shipping them (integer arithmetic, so exactly identical).
        self._init_weights()

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        states = self._states
        S = self._S
        p_own = states[a]
        q_own = states[b]
        pq = p_own * S + q_own
        out = self._dflat[pq]
        if out == pq:
            return False
        p2, q2 = divmod(out, S)
        counts = self.counts
        counts[p_own] -= 1
        counts[q_own] -= 1
        counts[p2] += 1
        counts[q2] += 1
        states[a] = p2
        states[b] = q2
        for j in self._dirty_by_pq[pq]:
            w = self._classes[j].weight(counts)
            self._W += w - self._weights[j]
            self._weights[j] = w
        return True

    def audit(self) -> str | None:
        true_w = self._protocol.compiled.total_active_weight(
            np.asarray(self.counts, dtype=np.int64)
        )
        if self._W != true_w:
            return f"incremental active weight {self._W} != recomputed {true_w}"
        return None


class BatchEngine(Engine):
    """Tight-loop uniform-scheduler engine with block pair sampling."""

    name = "batch"
    _session_cls: type[BatchSession] = BatchSession

    def __init__(self, block_size: int = 4096) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._block_size = block_size

    def start(
        self,
        protocol: Protocol,
        n: int | None = None,
        *,
        seed: SeedLike = None,
        initial_counts: Sequence[int] | np.ndarray | None = None,
        max_interactions: int | None = None,
        track_state: str | int | None = None,
        on_effective: StepCallback | None = None,
    ) -> BatchSession:
        return self._session_cls(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
