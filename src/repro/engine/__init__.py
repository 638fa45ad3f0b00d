"""Simulation engines: reference agent-based, batched uniform, the
count-based jump-chain engine with null-interaction skipping, and the
graph engine for restricted interaction graphs (batch, count and graph
run their loops as compiled kernels whenever a native backend exists;
``batch-jit``/``count-jit`` are the same engines under their old
names).  Trial parallelism comes from ``run_trials(workers=N)``.

Each engine is a stepper factory: ``Engine.start`` returns a resumable
:class:`EngineSession` (advance/snapshot/restore/result) and
``Engine.run`` drives a fresh session to completion in one call."""

from .agent_based import AgentBasedEngine
from .base import Engine, SimulationResult, StepCallback
from .batch import BatchEngine
from .count_based import CountBasedEngine
from .graph_batch import GraphBatchEngine, GraphBatchSession
from .jit import JitBatchEngine, JitCountEngine
from .kernels import KernelBuildError, KernelSet, get_kernels, reset_kernels
from .metrics import GroupSizeRecorder, TimeSeriesRecorder, aggregate_milestones
from .registry import (
    available_engines,
    build_engine,
    engine_for_scheduler,
    register_engine,
    resolve_engine,
)
from .session import EngineSession, SessionState, SessionStatus
from .runner import (
    InMemoryTrialCache,
    TrialCache,
    TrialSet,
    run_trials,
    trial_fingerprint,
    use_trial_cache,
)
from .sampling import FenwickWeights

__all__ = [
    "Engine",
    "SimulationResult",
    "StepCallback",
    "EngineSession",
    "SessionState",
    "SessionStatus",
    "AgentBasedEngine",
    "BatchEngine",
    "CountBasedEngine",
    "GraphBatchEngine",
    "GraphBatchSession",
    "JitCountEngine",
    "JitBatchEngine",
    "KernelSet",
    "KernelBuildError",
    "get_kernels",
    "reset_kernels",
    "FenwickWeights",
    "available_engines",
    "build_engine",
    "engine_for_scheduler",
    "register_engine",
    "resolve_engine",
    "TimeSeriesRecorder",
    "GroupSizeRecorder",
    "aggregate_milestones",
    "TrialSet",
    "TrialCache",
    "InMemoryTrialCache",
    "run_trials",
    "trial_fingerprint",
    "use_trial_cache",
]
