"""Session-layer tests, parametrized over every engine.

Pins the contracts the steppable core introduces: exact budget
exhaustion with single telemetry emission, prime/finalize dispatch
exactly once per run at whole-run coordinates, and bit-identical
sliced execution with snapshot/restore round-trips through bytes at
every slice boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationError
from repro.engine import (
    SessionState,
    SessionStatus,
    SimulationResult,
    available_engines,
    build_engine,
    resolve_engine,
)
from repro.obs import Telemetry, use_telemetry
from repro.protocols import leader_election, uniform_k_partition

PROTO = uniform_k_partition(3)
LEADER = leader_election()


def science(result) -> dict:
    """A result record minus wall-clock timing (the reproducible part)."""
    record = result.to_record()
    record.pop("elapsed")
    return record


class CountingRecorder:
    """StepCallback that counts hook dispatches and logs the step stream."""

    def __init__(self):
        self.primes = 0
        self.finalizes = 0
        self.steps: list[int] = []
        self.final_at: int | None = None

    def __call__(self, interactions, counts):
        self.steps.append(interactions)

    def prime(self, interactions, counts):
        assert interactions == 0
        self.primes += 1

    def finalize(self, interactions, counts):
        self.finalizes += 1
        self.final_at = interactions


class TestBudgetExhaustion:
    """Satellite: every engine agrees on what running out means."""

    def test_exhaustion_parity(self, any_engine):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            r = any_engine.run(PROTO, 60, seed=3, max_interactions=50)
        assert not r.converged
        # The budget is exact, not approximate: even engines that skip
        # null interactions in closed form stop at precisely the cap.
        assert r.interactions == 50
        counters = telemetry.snapshot()["counters"]
        run_keys = sorted(k for k in counters if k.endswith(".runs"))
        # record_simulation fired exactly once, under this engine's own
        # name — no spurious records from an internal delegate run.
        assert run_keys == [f"engine.{any_engine.name}.runs"]
        assert counters[f"engine.{any_engine.name}.runs"] == 1
        assert counters[f"engine.{any_engine.name}.interactions"] == 50

    def test_exhausted_session_status(self, any_engine):
        session = any_engine.start(PROTO, 60, seed=3, max_interactions=50)
        status = session.advance()
        assert status is SessionStatus.EXHAUSTED
        assert session.result().interactions == 50


class TestHookDispatch:
    """Satellite: prime/finalize fire exactly once per run."""

    def test_hooks_fire_once(self, any_engine):
        rec = CountingRecorder()
        r = any_engine.run(PROTO, 24, seed=2, on_effective=rec)
        assert rec.primes == 1
        assert rec.finalizes == 1
        assert rec.final_at == r.interactions
        assert len(rec.steps) == r.effective_interactions

    def test_sliced_run_fires_hooks_once(self, any_engine):
        rec = CountingRecorder()
        session = any_engine.start(PROTO, 24, seed=2, on_effective=rec)
        while not session.advance(10).terminal:
            pass
        session.result()
        session.result()  # cached; must not re-emit or re-finalize
        assert rec.primes == 1
        assert rec.finalizes == 1


class TestSlicedExecution:
    """Tentpole property: sliced execution with snapshot/restore
    round-trips through bytes reproduces the straight run bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("cut", [1, 7, 97])
    def test_sliced_equals_straight(self, any_engine, cut, seed):
        n = 15 if cut == 1 else 33
        straight = any_engine.run(PROTO, n, seed=seed, track_state="g3")

        stream: list = []
        watch = lambda i, c: stream.append((i, tuple(c)))  # noqa: E731
        session = any_engine.start(
            PROTO, n, seed=seed, track_state="g3", on_effective=watch
        )
        hops = 0
        while not session.advance(cut).terminal:
            # Serialize, discard the session, resurrect in a fresh one
            # built from an unrelated seed — the snapshot must carry
            # everything, including the RNG state and any pre-drawn
            # randomness.
            blob = session.snapshot().to_bytes()
            session = any_engine.start(
                PROTO, n, seed=seed + 999, track_state="g3", on_effective=watch
            )
            session.restore(SessionState.from_bytes(blob))
            hops += 1
        sliced = session.result()

        assert science(sliced) == science(straight)
        assert hops > 0  # the run really was interrupted mid-flight

        # The effective-step stream equals a straight session's stream.
        stream2: list = []
        session2 = any_engine.start(
            PROTO, n, seed=seed, track_state="g3",
            on_effective=lambda i, c: stream2.append((i, tuple(c))),
        )
        session2.advance()
        assert stream == stream2

    @pytest.mark.parametrize("seed", [1, 4])
    def test_sliced_equals_straight_without_predicate(self, any_engine, seed):
        # Leader election detects termination via silence, the other
        # halting path — slice through it too.
        straight = any_engine.run(LEADER, 20, seed=seed)
        session = any_engine.start(LEADER, 20, seed=seed)
        while not session.advance(13).terminal:
            blob = session.snapshot().to_bytes()
            session = any_engine.start(LEADER, 20, seed=seed)
            session.restore(blob)
        assert science(session.result()) == science(straight)

    def test_sliced_budget_run_matches(self, any_engine):
        straight = any_engine.run(PROTO, 60, seed=5, max_interactions=200)
        session = any_engine.start(PROTO, 60, seed=5, max_interactions=200)
        while not session.advance(17).terminal:
            pass
        assert science(session.result()) == science(straight)


class TestSnapshotValidation:
    def test_wrong_engine_rejected(self):
        snap = build_engine("count").start(PROTO, 12, seed=0).snapshot()
        target = build_engine("batch").start(PROTO, 12, seed=0)
        with pytest.raises(SimulationError, match="engine"):
            target.restore(snap)

    def test_wrong_protocol_rejected(self):
        snap = build_engine("count").start(PROTO, 12, seed=0).snapshot()
        target = build_engine("count").start(uniform_k_partition(4), 12, seed=0)
        with pytest.raises(SimulationError, match="fingerprint"):
            target.restore(snap)

    def test_wrong_parameters_rejected(self):
        snap = build_engine("count").start(PROTO, 12, seed=0).snapshot()
        target = build_engine("count").start(PROTO, 15, seed=0)
        with pytest.raises(SimulationError, match="parameters"):
            target.restore(snap)
        tracked = build_engine("count").start(PROTO, 12, seed=0, track_state="g3")
        with pytest.raises(SimulationError, match="tracked"):
            tracked.restore(snap)

    def test_corrupt_bytes_rejected(self):
        with pytest.raises(SimulationError, match="snapshot"):
            SessionState.from_bytes(b"not a snapshot")

    def test_version_mismatch_rejected(self):
        snap = build_engine("count").start(PROTO, 12, seed=0).snapshot()
        snap.version = 999
        with pytest.raises(SimulationError, match="version"):
            SessionState.from_bytes(snap.to_bytes())


class TestSessionLifecycle:
    def test_result_raises_while_running(self, any_engine):
        session = any_engine.start(PROTO, 30, seed=0)
        with pytest.raises(SimulationError, match="still running"):
            session.result()

    def test_nonpositive_advance_budget_rejected(self, any_engine):
        session = any_engine.start(PROTO, 12, seed=0)
        with pytest.raises(SimulationError, match="positive"):
            session.advance(0)

    def test_advance_after_terminal_is_a_noop(self, any_engine):
        session = any_engine.start(PROTO, 12, seed=0)
        final = session.advance()
        assert final.terminal
        before = science(session.result())
        assert session.advance(100) is final
        assert science(session.result()) == before


class TestRegistryRoundTrip:
    """Satellite: SimulationResult.engine strings survive the registry."""

    @pytest.mark.parametrize("name", available_engines())
    def test_engine_string_round_trips(self, name):
        engine = build_engine(name)
        assert engine.name == name
        r = engine.run(PROTO, 12, seed=0)
        assert r.engine == name
        # The reported string resolves back to the same engine type,
        # and survives record serialization unchanged.
        assert type(resolve_engine(r.engine)) is type(engine)
        assert SimulationResult.from_record(r.to_record()).engine == name


class TestSnapshotDigest:
    def test_identical_states_share_a_digest(self, any_engine):
        a = resolve_engine(any_engine).start(PROTO, 18, seed=3)
        snap = a.snapshot()
        assert snap.digest() == a.snapshot().digest()
        assert snap.digest() == SessionState.from_bytes(snap.to_bytes()).digest()

    def test_digest_tracks_state_changes(self, any_engine):
        a = resolve_engine(any_engine).start(PROTO, 18, seed=3)
        before = a.snapshot().digest()
        a.advance(10)
        assert a.snapshot().digest() != before

    def test_version_mismatch_names_engine_and_versions(self):
        session = resolve_engine("count").start(PROTO, 12, seed=0)
        snap = session.snapshot()
        snap.version = 999
        with pytest.raises(SimulationError) as err:
            SessionState.from_bytes(snap.to_bytes())
        message = str(err.value)
        assert "'count'" in message
        assert "999" in message
        assert "version 1" in message
