"""Compilation of a :class:`~repro.core.protocol.Protocol` to flat tables.

Simulation speed is dominated by the per-interaction inner loop, so all
engines work on a :class:`CompiledProtocol`: dense integer lookup tables
plus a list of *interaction classes* for the count-based engine.

Interaction classes are defined over **ordered** agent pairs: the
uniform scheduler picks an ordered pair of distinct agents uniformly
among ``T = n(n-1)``, so with per-state counts ``c`` the number of
ordered pairs realizing inputs ``(p, q)`` is

* ``c[p] * c[q]``        when ``p != q``
* ``c[p] * (c[p] - 1)``  when ``p == q``.

For the common case of *mirror-consistent* rules (the rule on ``(q, p)``
is exactly the mirror of the rule on ``(p, q)``, which is how symmetric
papers list their transitions) both orientations produce the same count
update, so the compiler merges them into one class with a weight
multiplier of 2.  Rules whose two orientations differ (legitimately
*oriented* protocols, e.g. initiator-wins majority or products of an
asymmetric with a symmetric protocol) stay as separate classes — the
count engine then samples the orientation implicitly through the class
weights, exactly matching agent-level simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .protocol import Protocol

__all__ = [
    "InteractionClass",
    "ClassTables",
    "PairTables",
    "CompiledProtocol",
    "compile_protocol",
]


@dataclass(frozen=True, slots=True)
class InteractionClass:
    """One active input pair with its rule outputs (state indices).

    ``weight`` counts the ordered agent pairs this class captures:
    ``multiplier * c[in1] * c[in2]`` for distinct inputs (multiplier 2
    when the class folds both mirror-consistent orientations, else 1),
    and ``c[in1] * (c[in1] - 1)`` for same-state inputs.
    """

    in1: int
    in2: int
    out1: int
    out2: int
    #: True when both inputs are the same state.
    same: bool
    #: Ordered-orientation multiplicity (1 or 2); 1 for same-state.
    multiplier: int = 2

    def weight(self, counts: np.ndarray) -> int:
        """Number of ordered agent pairs realizing this class."""
        if self.same:
            c = int(counts[self.in1])
            return c * (c - 1)
        return self.multiplier * int(counts[self.in1]) * int(counts[self.in2])


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, indices)`` int64 arrays of a list of index lists."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return offsets, _int64([j for row in rows for j in row])


@dataclass(frozen=True, slots=True)
class ClassTables:
    """Column form of :attr:`CompiledProtocol.classes` for the jump chain.

    Built once per compiled protocol and shared by every chain over it;
    nothing may write to these lists or arrays.  The lists feed the
    Python loop; :attr:`arrays` holds the same tables as int64 arrays
    in the order the compiled jump-chain kernel takes them.
    """

    in1: list[int]
    in2: list[int]
    out1: list[int]
    out2: list[int]
    same: list[bool]
    mult: list[int]
    #: ``affected[r]``: classes whose weight can change when ``r`` fires
    #: (classes sharing any of its four touched states), sorted.
    affected: list[list[int]]
    #: ``in1, in2, out1, out2, same, mult, aff_off, aff_idx`` (int64).
    arrays: tuple[np.ndarray, ...]


@dataclass(frozen=True, slots=True)
class PairTables:
    """Rule tables of the pair-draw/apply (batch) loop.

    Built once per compiled protocol and shared by every batch session
    over it; nothing may write to these lists or arrays.  ``dirty[pq]``
    lists, per ordered rule key ``p*S + q``, the classes whose weight
    the rule can change (empty for null pairs), sorted; the Python loop
    reads it.  ``delta`` (``delta_flat`` widened to int64) and
    ``pq_off``/``pq_idx`` (``dirty`` in CSR form) feed the kernel.
    """

    dirty: list[list[int]]
    delta: np.ndarray
    pq_off: np.ndarray
    pq_idx: np.ndarray


@dataclass(slots=True)
class CompiledProtocol:
    """Flat lookup tables for a protocol, shared by all engines.

    Attributes
    ----------
    num_states:
        ``S = |Q|``.
    delta_flat:
        ``int32`` array of length ``S*S``; entry ``p*S + q`` packs the
        ordered outputs as ``p2*S + q2``.  Null pairs map to themselves.
    active_flat:
        ``bool`` array of length ``S*S``; True where the ordered pair has
        a state-changing rule.
    group_array:
        ``g[i] = f(state_i)`` (1-based groups; 0 where unmapped).
    classes:
        Active interaction classes for the count-based engine.
    state_classes:
        ``state_classes[s]`` lists the indices of classes whose input
        pair involves state ``s`` — used for incremental weight updates.
    """

    num_states: int
    delta_flat: np.ndarray
    active_flat: np.ndarray
    group_array: np.ndarray
    classes: list[InteractionClass]
    state_classes: list[list[int]]
    _delta_list: list[int] | None = field(default=None, repr=False)
    _class_tables: ClassTables | None = field(default=None, repr=False, compare=False)
    _pair_tables: PairTables | None = field(default=None, repr=False, compare=False)

    @property
    def delta_list(self) -> list[int]:
        """``delta_flat`` as a Python list (faster scalar indexing)."""
        if self._delta_list is None:
            self._delta_list = self.delta_flat.tolist()
        return self._delta_list

    @property
    def class_tables(self) -> ClassTables:
        """The jump chain's class tables (built on first use, then shared)."""
        if self._class_tables is None:
            classes = self.classes
            state_classes = self.state_classes
            columns = (
                [c.in1 for c in classes],
                [c.in2 for c in classes],
                [c.out1 for c in classes],
                [c.out2 for c in classes],
                [c.same for c in classes],
                [c.multiplier for c in classes],
            )
            affected: list[list[int]] = []
            for c in classes:
                dirty: set[int] = set()
                for s in {c.in1, c.in2, c.out1, c.out2}:
                    dirty.update(state_classes[s])
                affected.append(sorted(dirty))
            arrays = tuple(_int64(col) for col in columns) + _csr(affected)
            self._class_tables = ClassTables(*columns, affected, arrays)
        return self._class_tables

    @property
    def pair_tables(self) -> PairTables:
        """The batch loop's rule tables (built on first use, then shared)."""
        if self._pair_tables is None:
            S = self.num_states
            state_classes = self.state_classes
            dflat = self.delta_list
            dirty_by_pq: list[list[int]] = []
            for pq, out in enumerate(dflat):
                touched: set[int] = set()
                if out != pq:
                    for s in (*divmod(pq, S), *divmod(out, S)):
                        touched.update(state_classes[s])
                dirty_by_pq.append(sorted(touched))
            self._pair_tables = PairTables(
                dirty_by_pq, _int64(dflat), *_csr(dirty_by_pq)
            )
        return self._pair_tables

    def class_weights(self, counts: np.ndarray) -> list[int]:
        """Weights of all classes for a given count vector."""
        return [cls.weight(counts) for cls in self.classes]

    def total_active_weight(self, counts: np.ndarray) -> int:
        """Ordered agent pairs whose interaction changes some state."""
        return sum(self.class_weights(counts))

    def is_silent(self, counts: np.ndarray) -> bool:
        """True when no possible interaction changes any state."""
        return self.total_active_weight(counts) == 0


def compile_protocol(protocol: "Protocol") -> CompiledProtocol:
    """Build the flat tables for ``protocol``."""
    space = protocol.space
    table = protocol.transitions
    S = len(space)

    delta_flat = np.arange(S * S, dtype=np.int32)
    active_flat = np.zeros(S * S, dtype=bool)

    for t in table:
        p = space.index(t.p)
        q = space.index(t.q)
        p2 = space.index(t.p2)
        q2 = space.index(t.q2)
        delta_flat[p * S + q] = p2 * S + q2
        if (p, q) != (p2, q2):
            active_flat[p * S + q] = True

    classes: list[InteractionClass] = []
    handled: set[tuple[int, int]] = set()
    for t in table:
        p = space.index(t.p)
        q = space.index(t.q)
        if (p, q) in handled:
            continue
        handled.add((p, q))
        if p == q:
            if t.is_identity:
                continue
            classes.append(
                InteractionClass(
                    p, p,
                    space.index(t.p2), space.index(t.q2),
                    same=True, multiplier=1,
                )
            )
            continue
        reverse = table.lookup(t.q, t.p)
        if reverse is not None and reverse == t.mirror:
            # Mirror-consistent: one class covers both orientations.
            handled.add((q, p))
            if t.is_identity:
                continue
            classes.append(
                InteractionClass(
                    p, q,
                    space.index(t.p2), space.index(t.q2),
                    same=False, multiplier=2,
                )
            )
        else:
            # Oriented rule: this orientation only (the reverse, if it
            # exists and differs, gets its own class on its own pass).
            if t.is_identity:
                continue
            classes.append(
                InteractionClass(
                    p, q,
                    space.index(t.p2), space.index(t.q2),
                    same=False, multiplier=1,
                )
            )

    state_classes: list[list[int]] = [[] for _ in range(S)]
    for idx, cls in enumerate(classes):
        state_classes[cls.in1].append(idx)
        if cls.in2 != cls.in1:
            state_classes[cls.in2].append(idx)

    return CompiledProtocol(
        num_states=S,
        delta_flat=delta_flat,
        active_flat=active_flat,
        group_array=space.group_array,
        classes=classes,
        state_classes=state_classes,
    )
