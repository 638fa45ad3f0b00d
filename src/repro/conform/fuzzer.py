"""Seed-corpus conformance fuzzing across the protocol registry.

Each :class:`FuzzCase` fixes one (protocol, parameters, n, seed,
scheduler) point; :func:`run_fuzz` subjects it to three independent
checks:

1. **differential** — record a schedule and replay it through every
   engine data path (:func:`~repro.conform.differ.run_differential`),
   with the invariant pack enforced on the oracle trajectory;
2. **scheduler sweep** — run the agent engine under the case's
   scheduler with a :class:`~repro.conform.invariants.ConformanceMonitor`
   attached: the paper's invariants are properties of *reachable
   configurations* and must hold under any scheduler, fair or not
   (convergence is deliberately not required here — the round-robin
   scheduler exists precisely because the protocol may livelock under
   it);
3. **cross-engine split** — run every real engine independently at the
   case's seed and compare final group sizes among the runs that
   converged.  The engines are only distributionally equal, but
   protocols with a unique stable signature (Lemmas 4-6) must agree on
   the output partition whenever they converge at all.

Every run carries an explicit ``max_interactions`` budget: some
parameter points (e.g. k-partition with ``n = 2``, where rules 1-2
flip both agents in lockstep and rule 5 can never fire) provably never
stabilize, and a fuzzer that can hang is worse than no fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence

from ..analysis.invariants import InvariantViolation
from ..core.errors import SchedulerError
from ..core.protocol import Protocol
from ..engine.agent_based import AgentBasedEngine
from ..engine.registry import build_engine
from ..protocols.registry import build_protocol
from ..scheduling.adversarial import RoundRobinScheduler, StickyScheduler
from ..scheduling.spec import SchedulerSpec
from ..scheduling.uniform import UniformScheduler
from .differ import run_differential
from .invariants import ConformanceMonitor, invariant_pack

__all__ = ["FuzzCase", "FuzzFinding", "default_corpus", "run_fuzz"]

#: Scheduler factories the fuzzer knows, keyed by the name a
#: :class:`FuzzCase` carries.  All take ``(n, rng)``.  Names that parse
#: as a :class:`~repro.scheduling.spec.SchedulerSpec` (``graph:*``,
#: ``round-robin``) additionally drive scheduler-aware differential
#: recording; ``sticky`` is fuzzer-only and records uniform.
SCHEDULERS: dict[str, Callable] = {
    "uniform": UniformScheduler,
    "sticky": lambda n, rng: StickyScheduler(n, 0.7, rng),
    "round-robin": RoundRobinScheduler,
    "graph:complete": SchedulerSpec.parse("graph:complete").build,
    "graph:cycle": SchedulerSpec.parse("graph:cycle").build,
    "graph:regular:4": SchedulerSpec.parse("graph:regular:4").build,
}


@dataclass(slots=True)
class FuzzCase:
    """One point of the conformance corpus."""

    protocol: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)
    scheduler: str = "uniform"
    #: True when the protocol has a unique stable output partition, so
    #: converged engines must agree on group sizes (Lemmas 4-6 family).
    deterministic_output: bool = True
    max_interactions: int = 100_000

    def label(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.protocol}{extra} n={self.n} seed={self.seed} "
            f"sched={self.scheduler}"
        )

    def build(self) -> Protocol:
        return build_protocol(self.protocol, **self.params)


@dataclass(slots=True)
class FuzzFinding:
    """One confirmed disagreement or violation."""

    case: FuzzCase
    #: "divergence" | "invariant" | "engine-split" | "error"
    kind: str
    detail: str
    reproducer_path: str | None = None

    def summary(self) -> str:
        line = f"[{self.kind}] {self.case.label()}: {self.detail}"
        if self.reproducer_path:
            line += f" (reproducer: {self.reproducer_path})"
        return line


def default_corpus(*, seed: int = 20240801) -> list[FuzzCase]:
    """The fixed-seed corpus the CI smoke job runs.

    Sweeps the k-partition protocol over the edge regimes of Lemmas
    4-6 — ``k = 2``, ``n = k`` (all groups singletons), ``n mod k = 1``
    (the stable-but-not-silent free agent) and ``n mod k >= 2`` — plus
    one point per other registry protocol with a designated initial
    state.  Seeds are derived deterministically from ``seed`` so the
    corpus is reproducible run to run.
    """
    cases: list[FuzzCase] = []
    counter = 0

    def add(**kwargs: object) -> None:
        nonlocal counter
        cases.append(FuzzCase(seed=seed + counter, **kwargs))  # type: ignore[arg-type]
        counter += 1

    for k, n in [
        (2, 2 + 1),      # smallest workable population
        (2, 8),          # r = 0
        (3, 3),          # n = k: every group a singleton
        (3, 7),          # r = 1: stable but not silent
        (3, 8),          # r = 2: one m_r survivor
        (4, 4 + 1),      # n = k + 1
        (5, 23),         # r = 3 at moderate size
    ]:
        add(protocol="uniform-k-partition", params={"k": k}, n=n)
    add(protocol="uniform-k-partition", params={"k": 3}, n=10, scheduler="sticky")
    add(
        protocol="uniform-k-partition",
        params={"k": 3},
        n=6,
        scheduler="round-robin",
        max_interactions=20_000,
    )
    add(protocol="uniform-bipartition", n=9)
    add(protocol="repeated-bipartition", params={"h": 2}, n=8)
    add(protocol="r-generalized-partition", params={"ratio": (1, 2)}, n=10)
    add(protocol="leader-election", n=12)
    add(
        protocol="approx-k-partition",
        params={"k": 3},
        n=12,
        deterministic_output=False,
    )
    # Weak-fairness k-partition: converges under round-robin (the
    # discriminating scenario — uniform-k-partition livelocks there).
    add(protocol="weak-k-partition", params={"k": 3}, n=10)
    add(
        protocol="weak-k-partition",
        params={"k": 3},
        n=11,
        scheduler="round-robin",
        max_interactions=20_000,
    )
    # Graph-restricted bipartition across the topology grid; the
    # graph:* cases also exercise the agent-vs-graph-engine
    # bit-identity check.
    add(protocol="graph-bipartition", n=12)
    add(protocol="graph-bipartition", n=14, scheduler="graph:complete")
    add(protocol="graph-bipartition", n=16, scheduler="graph:cycle")
    add(
        protocol="graph-bipartition",
        n=15,  # odd: stable-but-not-silent terminal
        scheduler="graph:regular:4",
    )
    return cases


def _fuzz_one(
    case: FuzzCase, reproducer_dir: str | Path | None
) -> list[FuzzFinding]:
    findings: list[FuzzFinding] = []
    protocol = case.build()

    # 1. Differential replay through every engine data path.  The
    # replay needs coverage, not convergence, so its budget is capped:
    # a non-stabilizing case must not balloon into a five-way replay of
    # the full interaction budget.  Cases whose scheduler name is part
    # of the spec grammar record under that scheduler; fuzzer-only
    # schedulers (sticky) record uniform as before.
    try:
        diff_scheduler: SchedulerSpec | None = SchedulerSpec.parse(
            case.scheduler
        )
    except SchedulerError:
        diff_scheduler = None
    report = run_differential(
        protocol,
        case.n,
        seed=case.seed,
        scheduler=diff_scheduler,
        max_interactions=min(case.max_interactions, 30_000),
        reproducer_dir=reproducer_dir,
    )
    if not report.ok:
        d = report.divergence
        kind = "invariant" if d is not None and d.kind == "invariant" else "divergence"
        findings.append(
            FuzzFinding(
                case=case,
                kind=kind,
                detail=report.summary(),
                reproducer_path=report.reproducer_path,
            )
        )

    # 2. Invariants under the case's scheduler (fair or not).
    factory = SCHEDULERS[case.scheduler]
    monitor = ConformanceMonitor(invariant_pack(protocol, case.n))
    try:
        AgentBasedEngine(scheduler_factory=factory).run(
            protocol,
            case.n,
            seed=case.seed,
            max_interactions=case.max_interactions,
            on_effective=monitor,
        )
    except InvariantViolation as exc:
        findings.append(
            FuzzFinding(
                case=case,
                kind="invariant",
                detail=f"under {case.scheduler} scheduler: {exc}",
            )
        )

    # 3. Cross-engine output agreement (uniform scheduler only — the
    # jump-chain engines require it).
    if case.deterministic_output and case.scheduler == "uniform":
        outputs: dict[str, tuple[int, ...]] = {}
        for engine_name in ("agent", "batch", "count"):
            result = build_engine(engine_name).run(
                protocol,
                case.n,
                seed=case.seed,
                max_interactions=case.max_interactions,
            )
            if result.converged and len(result.group_sizes):
                outputs[engine_name] = tuple(int(g) for g in result.group_sizes)
        if len(set(outputs.values())) > 1:
            findings.append(
                FuzzFinding(
                    case=case,
                    kind="engine-split",
                    detail=(
                        "converged engines disagree on the output "
                        f"partition: { {e: list(g) for e, g in outputs.items()} }"
                    ),
                )
            )

    # 4. Agent-vs-graph bit-identity (graph schedulers only).  The
    # graph engine documents draw-for-draw equivalence with the agent
    # engine under a GraphScheduler built from the same spec — not a
    # distributional claim but an exact one, so any drift in either
    # sampling path is a finding.
    if diff_scheduler is not None and diff_scheduler.kind == "graph":
        from ..engine.graph_batch import GraphBatchEngine

        spec = diff_scheduler
        kwargs = dict(
            seed=case.seed, max_interactions=case.max_interactions
        )
        agent_result = AgentBasedEngine(scheduler_factory=spec.build).run(
            protocol, case.n, **kwargs
        )
        graph_result = GraphBatchEngine(spec).run(protocol, case.n, **kwargs)
        mismatches = [
            f"{field_name}: agent={a!r} graph={g!r}"
            for field_name, a, g in (
                (
                    "final_counts",
                    [int(x) for x in agent_result.final_counts],
                    [int(x) for x in graph_result.final_counts],
                ),
                (
                    "interactions",
                    agent_result.interactions,
                    graph_result.interactions,
                ),
                (
                    "effective_interactions",
                    agent_result.effective_interactions,
                    graph_result.effective_interactions,
                ),
                ("converged", agent_result.converged, graph_result.converged),
            )
            if a != g
        ]
        if mismatches:
            findings.append(
                FuzzFinding(
                    case=case,
                    kind="engine-split",
                    detail=(
                        "agent+GraphScheduler and graph engine are not "
                        "bit-identical: " + "; ".join(mismatches)
                    ),
                )
            )
    return findings


def run_fuzz(
    cases: Sequence[FuzzCase] | None = None,
    *,
    reproducer_dir: str | Path | None = None,
    log: Callable[[str], None] | None = None,
) -> list[FuzzFinding]:
    """Run every case of the corpus; returns all confirmed findings.

    A crash inside one case is converted into an ``error`` finding
    rather than aborting the sweep — the fuzzer's job is to surface
    problems, and a traceback in case 3 must not mask a divergence in
    case 7.
    """
    if cases is None:
        cases = default_corpus()
    findings: list[FuzzFinding] = []
    for i, case in enumerate(cases):
        if log is not None:
            log(f"[{i + 1}/{len(cases)}] {case.label()}")
        try:
            found = _fuzz_one(case, reproducer_dir)
        except Exception as exc:  # noqa: BLE001 — survey must not abort
            found = [
                FuzzFinding(
                    case=case,
                    kind="error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            ]
        for f in found:
            if log is not None:
                log("  " + f.summary())
        findings.extend(found)
    return findings
