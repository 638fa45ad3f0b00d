"""Engine registry: resolve engines by name.

Experiments, the CLI, and :func:`~repro.engine.runner.run_trials`
accept either an :class:`~repro.engine.base.Engine` instance or a
string name; this module maps names to constructors so callers can say
``engine="agent"`` without importing engine classes.  Third-party
engines can join via :func:`register_engine`.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable

from ..core.errors import SimulationError, UnknownEngineError
from ..scheduling.spec import SchedulerSpec
from .agent_based import AgentBasedEngine
from .base import Engine
from .batch import BatchEngine
from .count_based import CountBasedEngine
from .graph_batch import GraphBatchEngine
from .jit import JitBatchEngine, JitCountEngine

__all__ = [
    "available_engines",
    "build_engine",
    "engine_for_scheduler",
    "register_engine",
    "resolve_engine",
]

_REGISTRY: dict[str, Callable[[], Engine]] = {
    AgentBasedEngine.name: AgentBasedEngine,
    BatchEngine.name: BatchEngine,
    CountBasedEngine.name: CountBasedEngine,
    JitCountEngine.name: JitCountEngine,
    JitBatchEngine.name: JitBatchEngine,
    GraphBatchEngine.name: GraphBatchEngine,
}


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register ``factory`` under ``name`` (overwrites existing entries)."""
    if not name:
        raise ValueError("engine name must be non-empty")
    _REGISTRY[name] = factory


def build_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``.

    Raises
    ------
    UnknownEngineError
        (a :class:`ValueError`) listing every registered name and, when
        one is close enough, the most likely intended spelling.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_engines())
        message = f"unknown engine {name!r}; known engines: {known}"
        close = difflib.get_close_matches(name, available_engines(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise UnknownEngineError(message) from None
    return factory()


def resolve_engine(engine: Engine | str | None, default: str = "count") -> Engine:
    """Normalize an engine argument: instance, name, or None (default)."""
    if engine is None:
        return build_engine(default)
    if isinstance(engine, str):
        return build_engine(engine)
    return engine


def engine_for_scheduler(
    engine: Engine | str | None,
    scheduler: str | SchedulerSpec | None,
    default: str = "count",
) -> Engine:
    """Resolve an engine configured for the requested scheduler.

    ``scheduler`` of ``None`` or ``"uniform"`` leaves the engine choice
    untouched.  Otherwise the scheduler constrains which engines can
    execute it:

    * ``graph:*`` — the ``"graph"`` engine runs it at batch speed (and
      is what a bare engine name of ``"graph"`` or ``None`` resolves
      to); ``"agent"`` runs it through an explicit
      :class:`~repro.scheduling.graph.GraphScheduler` (the lockstep
      reference the conformance differ compares against).
    * ``roundrobin`` — agent-array only, so the ``"agent"`` engine is
      required (and is the default).

    Engine *instances* are passed through only when already compatible.
    """
    spec = None if scheduler is None else SchedulerSpec.parse(scheduler)
    if spec is None or spec.is_uniform:
        return resolve_engine(engine, default)

    if isinstance(engine, Engine):
        if spec.kind == "graph" and isinstance(engine, GraphBatchEngine):
            if engine.spec == spec:
                return engine
            raise SimulationError(
                f"engine instance is configured for {engine.spec.name!r}, "
                f"not {spec.name!r}"
            )
        if isinstance(engine, AgentBasedEngine) and engine._factory is None:
            return AgentBasedEngine(
                scheduler_factory=spec.build, block_size=engine._block_size
            )
        raise SimulationError(
            f"engine instance {engine.name!r} cannot run scheduler {spec.name!r}; "
            "pass an engine name instead"
        )

    name = engine if engine is not None else ("agent" if spec.kind == "roundrobin" else "graph")
    if name == "agent":
        return AgentBasedEngine(scheduler_factory=spec.build)
    if name == "graph":
        if spec.kind != "graph":
            raise SimulationError(
                f"the 'graph' engine needs a graph:* scheduler, got {spec.name!r}"
            )
        return GraphBatchEngine(spec)
    raise SimulationError(
        f"engine {name!r} is specialized to the uniform scheduler and "
        f"cannot run {spec.name!r}; use 'agent' or 'graph'"
    )
