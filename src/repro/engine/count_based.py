"""Count-based engine with closed-form null-interaction skipping.

The configuration process under the uniform scheduler is a Markov
chain on count vectors: an interaction picks one of the
``T = n(n-1)`` *ordered* distinct agent pairs uniformly, and the
probability that the next interaction fires rule class ``r`` is
``w_r / T`` where ``w_r`` is the number of ordered pairs realizing
that class (see :class:`repro.core.compiler.InteractionClass` —
mirror-consistent orientations fold into one class with multiplier 2;
oriented rules keep one class per orientation).  With total active
weight ``W = sum_r w_r``, the number of consecutive null interactions
before the next effective one is geometric with success probability
``W / T``.

The engine therefore simulates only the *embedded jump chain*:

1. sample the null-run length from the geometric law and add it to the
   interaction counter,
2. sample the effective class proportionally to ``w_r``,
3. apply it to the count vector and incrementally update the ``w_r`` of
   the classes whose input states changed.

The resulting sequence of configurations — and the total interaction
count — has exactly the same distribution as agent-level simulation
(the equivalence tests check this), but the cost per *effective*
interaction is O(log #classes) — class sampling and weight maintenance
go through the Fenwick-tree index of
:class:`~repro.engine.sampling.FenwickWeights` — and completely
independent of how many null interactions occur.  Near stabilization,
where the paper observes that the last grouping dominates the total
count (Figure 4), almost all interactions are null, and this engine is
orders of magnitude faster than agent-level simulation — it is what
makes the exponential-in-k sweep of Figure 6 feasible in pure Python.

The resumable core is :class:`JumpChain`: one instance owns the class
tables, Fenwick weights, pre-drawn uniform block, and generator of a
single jump-chain execution, and advances an external counter context
(the :class:`CountBasedSession` that owns it, its one stepper).
:class:`KernelJumpChain` is the same core with :meth:`~JumpChain.advance`
in the compiled ``jump_chain`` kernel; :class:`CountBasedSession` uses
it whenever :func:`~repro.engine.kernels.session_kernels` finds a
native kernel the run can use, and the result is bit-identical either
way.

Limitation: the derivation requires the uniform scheduler (the one the
paper simulates); for other schedulers use the agent-based engine.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.protocol import Protocol
from ..core.rng import SeedLike
from .base import Engine, StepCallback
from .kernels import (
    KERNEL_CONVERGED,
    KERNEL_EXHAUSTED,
    KERNEL_REFILL,
    KERNEL_SILENT,
    KernelPlan,
    session_kernels,
)
from .sampling import FenwickWeights
from .session import EngineSession

__all__ = ["CountBasedEngine", "CountBasedSession", "JumpChain", "KernelJumpChain"]

_RAND_BLOCK = 4096

#: Position of the random block among a kernel chain's bound arguments.
_RAND_ARG = 13


class JumpChain:
    """Resumable jump-chain core of one execution.

    Mutates ``counts`` (a shared plain-int list) in place and advances
    the counters of a context object exposing ``interactions``,
    ``effective``, ``milestones``, ``_high_water``, ``_track``,
    ``_on_effective`` and ``_budget`` — the session attribute protocol.

    The first uniform block is drawn eagerly at construction, exactly
    like the monolithic engine drew it before entering its loop; pass
    ``draw=False`` only when restoring a snapshot that already carries
    a block.
    """

    def __init__(
        self,
        protocol: Protocol,
        counts: list[int],
        rng: np.random.Generator,
        n_total: int,
        *,
        draw: bool = True,
    ) -> None:
        compiled = protocol.compiled
        # Shared, read-only class tables, built once per protocol.  The
        # affected lists keep the per-event update loop allocation-free.
        tables = compiled.class_tables
        self._compiled = compiled
        self.classes = compiled.classes
        self.in1 = tables.in1
        self.in2 = tables.in2
        self.out1 = tables.out1
        self.out2 = tables.out2
        self.same = tables.same
        self.mult = tables.mult
        self.affected = tables.affected

        self.counts = counts
        self.rng = rng
        # Ordered distinct pairs: the scheduler's sample space.
        self.T = n_total * (n_total - 1)
        self.pred = protocol.stability_predicate(n_total)
        self.rebuild_weights()

        # Pre-drawn uniforms; two per effective interaction.
        if draw:
            self.rand = rng.random(_RAND_BLOCK)
            self.rand_pos = 0
        else:
            self.rand = None
            self.rand_pos = 0
        self.converged = False
        self.silent = False
        self.exhausted = False
        self._pair_class: dict[tuple[int, int], int] | None = None

    def class_weights(self) -> list[int]:
        """Per-class active weights of the current counts."""
        counts = self.counts
        weights = []
        for i1, i2, same, mult in zip(self.in1, self.in2, self.same, self.mult):
            c = counts[i1]
            weights.append(c * (c - 1) if same else mult * c * counts[i2])
        return weights

    def rebuild_weights(self) -> None:
        """(Re)derive the Fenwick weights from the current counts."""
        self.weights = FenwickWeights(self.class_weights())

    # ------------------------------------------------------------------
    # The jump-chain loop
    # ------------------------------------------------------------------
    def advance(self, ctx, target: int) -> None:
        """Advance until ``ctx.interactions`` reaches ``target``, the
        configuration stabilizes or goes silent, or the run budget is
        exhausted.  Terminal flags land on ``self``; counters on ``ctx``."""
        counts = self.counts
        weights = self.weights
        fen_set = weights.set
        fen_find = weights.find
        W = weights.total
        T = self.T
        pred = self.pred
        in1, in2 = self.in1, self.in2
        out1, out2 = self.out1, self.out2
        same, mult = self.same, self.mult
        affected = self.affected
        rng = self.rng
        rand = self.rand
        rand_pos = self.rand_pos
        budget = ctx._budget
        track = ctx._track
        on_effective = ctx._on_effective
        interactions = ctx.interactions
        effective = ctx.effective
        milestones = ctx.milestones
        high_water = ctx._high_water
        log = math.log
        log1p = math.log1p

        converged = False
        silent = False
        exhausted = False
        while True:
            if pred is not None:
                if pred(counts):
                    converged = True
                    silent = W == 0
                    break
            if W == 0:
                # Silent: nothing can ever change again.  Without an
                # explicit predicate this is the stability criterion.
                silent = True
                converged = pred is None
                break
            if interactions >= target:
                # Slice boundary (or exact budget hit): pause without
                # consuming any randomness.
                break

            # --- geometric null skip ------------------------------------
            if rand_pos >= _RAND_BLOCK - 2:
                rand = rng.random(_RAND_BLOCK)
                rand_pos = 0
            if W >= T:
                nulls = 0
            else:
                u = 1.0 - rand[rand_pos]  # in (0, 1]
                rand_pos += 1
                nulls = int(log(u) / log1p(-W / T))
            if interactions + nulls + 1 > budget:
                interactions = budget
                exhausted = True
                break
            interactions += nulls + 1

            # --- sample the effective class -----------------------------
            # Inverse-CDF search on the Fenwick tree: O(log R), same
            # class a linear first-prefix-exceeding scan would pick.
            r = fen_find(rand[rand_pos] * W)
            rand_pos += 1

            # --- apply it ------------------------------------------------
            i1 = in1[r]
            i2 = in2[r]
            o1 = out1[r]
            o2 = out2[r]
            counts[i1] -= 1
            counts[i2] -= 1
            counts[o1] += 1
            counts[o2] += 1
            effective += 1

            # --- incremental weight maintenance ---------------------------
            for j in affected[r]:
                if same[j]:
                    c = counts[in1[j]]
                    fen_set(j, c * (c - 1))
                else:
                    fen_set(j, mult[j] * counts[in1[j]] * counts[in2[j]])
            W = weights.total

            if track is not None:
                cur = counts[track]
                while high_water < cur:
                    high_water += 1
                    milestones.append(interactions)
            if on_effective is not None:
                on_effective(interactions, counts)

        self.rand = rand
        self.rand_pos = rand_pos
        self.converged = converged
        self.silent = silent
        self.exhausted = exhausted
        ctx.interactions = interactions
        ctx.effective = effective
        ctx._high_water = high_water

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """Chain-private snapshot payload (counts are captured by the
        owner; Fenwick weights are rederived from them on restore)."""
        return {
            "rand": None if self.rand is None else self.rand.copy(),
            "rand_pos": self.rand_pos,
            "rng": EngineSession._rng_state(self.rng),
            "converged": self.converged,
            "silent": self.silent,
            "exhausted": self.exhausted,
        }

    def apply_capture(self, payload: dict) -> np.random.Generator:
        """Adopt a :meth:`capture` payload; returns the restored RNG."""
        rand = payload["rand"]
        self.rand = None if rand is None else np.asarray(rand, dtype=np.float64)
        self.rand_pos = payload["rand_pos"]
        self.rng = EngineSession._rng_from_state(payload["rng"])
        self.converged = payload["converged"]
        self.silent = payload["silent"]
        self.exhausted = payload["exhausted"]
        return self.rng

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def pair_class(self, p: int, q: int) -> int | None:
        """Class index realized by the ordered state pair, None if null."""
        pc = self._pair_class
        if pc is None:
            pc = {}
            for r, c in enumerate(self.classes):
                pc[(c.in1, c.in2)] = r
                if not c.same and c.multiplier == 2:
                    pc[(c.in2, c.in1)] = r
            self._pair_class = pc
        return pc.get((p, q))

    def apply_pair(self, p: int, q: int) -> bool:
        """Apply one externally scheduled ordered state pair (the jump
        chain never sees agent identities); True when effective."""
        r = self.pair_class(p, q)
        if r is None:
            return False
        counts = self.counts
        counts[self.in1[r]] -= 1
        counts[self.in2[r]] -= 1
        counts[self.out1[r]] += 1
        counts[self.out2[r]] += 1
        fen_set = self.weights.set
        in1, in2, same, mult = self.in1, self.in2, self.same, self.mult
        for j in self.affected[r]:
            if same[j]:
                c = counts[in1[j]]
                fen_set(j, c * (c - 1))
            else:
                fen_set(j, mult[j] * counts[in1[j]] * counts[in2[j]])
        return True

    def audit(self) -> str | None:
        true_w = self._compiled.total_active_weight(
            np.asarray(self.counts, dtype=np.int64)
        )
        if self.weights.total != true_w:
            return (
                f"Fenwick active weight {self.weights.total} != "
                f"recomputed {true_w}"
            )
        return None


class KernelJumpChain(JumpChain):
    """A :class:`JumpChain` whose :meth:`advance` runs in the kernel.

    Construction, snapshot capture/restore and driven
    ``apply_pair``/``audit`` are inherited, so snapshots interoperate
    with the Python loop.  The kernel's int64 weight array is the
    truth between advances; :attr:`weights` builds the Fenwick view on
    demand (driven execution and audits), and the next advance adopts
    whatever was written through it.

    The chain binds its buffers once, at construction.  A refill
    overwrites ``rand`` in place (``Generator.random(out=...)`` draws
    exactly the stream ``random(size)`` draws), so only a restored
    ``rand`` needs binding again.
    """

    def __init__(
        self,
        protocol: Protocol,
        counts: list[int],
        rng: np.random.Generator,
        n_total: int,
        *,
        plan: KernelPlan,
        draw: bool = True,
    ) -> None:
        self._values = np.empty(len(protocol.compiled.classes), dtype=np.int64)
        self._fenwick: FenwickWeights | None = None
        super().__init__(protocol, counts, rng, n_total, draw=draw)
        self._kernels = plan.kernels
        self._counts_arr = np.empty(len(counts), dtype=np.int64)
        self._ms_buf = np.zeros(n_total + 2, dtype=np.int64)
        self._reg = np.zeros(6, dtype=np.int64)
        bind = plan.kernels.bind
        self._args = [
            bind(self._counts_arr), bind(self._values), *plan.jump_tables,
            None, bind(self._ms_buf), bind(self._reg),
        ]
        self._bound_rand: np.ndarray | None = None

    @property
    def weights(self) -> FenwickWeights:
        if self._fenwick is None:
            self._fenwick = FenwickWeights(self._values.tolist())
        return self._fenwick

    def rebuild_weights(self) -> None:
        self._values[:] = self.class_weights()
        self._fenwick = None

    def advance(self, ctx, target: int) -> None:
        fenwick = self._fenwick
        if fenwick is not None:
            self._values[:] = fenwick.to_list()
            self._fenwick = None
        counts_arr = self._counts_arr
        counts_arr[:] = self.counts
        if self.rand is None:  # pragma: no cover — restore always refills
            self.rand = self.rng.random(_RAND_BLOCK)
            self.rand_pos = 0
        args = self._args
        if self._bound_rand is not self.rand:
            args[_RAND_ARG] = self._kernels.bind(self.rand)
            self._bound_rand = self.rand
        reg = self._reg
        reg[0] = self.rand_pos
        reg[1] = ctx.interactions
        reg[2] = ctx.effective
        reg[3] = int(self._values.sum())
        reg[4] = ctx._high_water
        track = -1 if ctx._track is None else ctx._track
        budget = ctx._budget
        kern = self._kernels.jump_chain
        ms_buf = self._ms_buf
        milestones = ctx.milestones
        while True:
            status = kern(*args, self.T, target, budget, track)
            ms_len = int(reg[5])
            if ms_len:
                milestones.extend(ms_buf[:ms_len].tolist())
            if status != KERNEL_REFILL:
                break
            # The wrapper owns the Generator: refill at exactly the
            # stream position the pure-Python loop refills at.
            self.rng.random(out=self.rand)
            reg[0] = 0

        self.counts[:] = counts_arr.tolist()
        pos, interactions, effective, W, high_water, _ = reg.tolist()
        self.rand_pos = pos
        self.converged = status == KERNEL_CONVERGED or (
            status == KERNEL_SILENT and self.pred is None
        )
        self.silent = status == KERNEL_SILENT or (
            status == KERNEL_CONVERGED and W == 0
        )
        self.exhausted = status == KERNEL_EXHAUSTED
        ctx.interactions = interactions
        ctx.effective = effective
        ctx._high_water = high_water


class CountBasedSession(EngineSession):
    """Stepper for :class:`CountBasedEngine`: one :class:`JumpChain`.

    The chain is a :class:`KernelJumpChain` whenever
    :func:`~repro.engine.kernels.session_kernels` finds a native kernel
    the run can use, and the Python :class:`JumpChain` otherwise.
    """

    def __init__(
        self,
        engine: "CountBasedEngine",
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
        self._kernel_plan = session_kernels(protocol, self._n, on_effective)
        self._chain = self._make_chain(draw=True)

    def _make_chain(self, *, draw: bool = True) -> JumpChain:
        """Build the jump-chain core: kernel-backed when possible."""
        if self._kernel_plan is None:
            return JumpChain(
                self._protocol, self.counts, self._rng, self._n, draw=draw
            )
        return KernelJumpChain(
            self._protocol, self.counts, self._rng, self._n,
            plan=self._kernel_plan, draw=draw,
        )

    def _advance_inner(self, target: int) -> None:
        chain = self._chain
        chain.advance(self, target)
        self._converged = chain.converged
        self._halted = chain.silent and not chain.converged

    def _silent_now(self) -> bool:
        return self._chain.silent

    def _capture(self) -> dict:
        return {"counts": list(self.counts), "chain": self._chain.capture()}

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        self._chain = self._make_chain(draw=False)
        self._rng = self._chain.apply_capture(extra["chain"])

    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        return self._chain.apply_pair(p, q)

    def audit(self) -> str | None:
        return self._chain.audit()


class CountBasedEngine(Engine):
    """Jump-chain engine: O(log #rules) per effective interaction."""

    name = "count"

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
    ) -> CountBasedSession:
        return CountBasedSession(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
