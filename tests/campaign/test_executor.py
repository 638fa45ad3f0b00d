"""Tests for the campaign executor: draining, retries, interruption."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignStore, JobSpec, run_campaign
from repro.campaign import executor as executor_module


def make_spec(seed: int = 0, **overrides) -> JobSpec:
    base = dict(
        protocol="uniform-k-partition", params={"k": 3}, n=9, trials=2, seed=seed
    )
    base.update(overrides)
    return JobSpec(**base)


@pytest.fixture()
def store(tmp_path):
    s = CampaignStore(tmp_path / "campaign.db")
    yield s
    s.close()


class TestDrain:
    def test_drains_everything(self, store):
        store.submit_many([make_spec(seed=s) for s in range(5)])
        report = run_campaign(store)
        assert report.executed == 5
        assert report.failed == 0
        assert store.counts()["done"] == 5

    def test_max_jobs_stops_early(self, store):
        store.submit_many([make_spec(seed=s) for s in range(4)])
        report = run_campaign(store, max_jobs=2)
        assert report.executed == 2
        assert store.counts()["pending"] == 2

    def test_progress_messages(self, store):
        store.submit(make_spec())
        messages = []
        run_campaign(store, progress=messages.append)
        assert any("done" in m for m in messages)

    def test_pool_workers_match_serial(self, tmp_path):
        specs = [make_spec(seed=s) for s in range(4)]
        serial = CampaignStore(tmp_path / "serial.db")
        serial.submit_many(specs)
        run_campaign(serial)
        pooled = CampaignStore(tmp_path / "pooled.db")
        pooled.submit_many(specs)
        report = run_campaign(pooled, workers=2)
        assert report.executed == 4
        from tests.campaign.test_store import scientific_content

        for spec in specs:
            assert scientific_content(serial.result_record(spec.digest)) == \
                scientific_content(pooled.result_record(spec.digest))
        serial.close()
        pooled.close()


class TestKernelBackedJobs:
    """Jobs on the kernel-backed engines commit: every trial record goes
    through the JSON of ``save_checkpoint`` and ``mark_done``."""

    @pytest.mark.parametrize("engine", ["count", "count-jit"])
    def test_drain_commits_through_checkpoints(self, store, monkeypatch, engine):
        spec = make_spec(n=40, trials=3, seed=5, engine=engine)
        digest, _ = store.submit(spec)
        checkpoints = []
        real_save = store.save_checkpoint

        def save_checkpoint(digest_, **kwargs):
            checkpoints.append(kwargs["session"] is None)
            return real_save(digest_, **kwargs)

        monkeypatch.setattr(store, "save_checkpoint", save_checkpoint)
        report = run_campaign(store, retries=0, checkpoint_interactions=40)
        assert (report.executed, report.failed) == (1, 0)
        assert False in checkpoints  # mid-trial session snapshots
        assert checkpoints.count(True) == spec.trials  # trial boundaries
        record = store.result_record(digest)
        assert len(record["results"]) == spec.trials
        for trial in record["results"]:
            assert type(trial["silent"]) is bool
            assert type(trial["converged"]) is bool


class TestFailure:
    def test_bad_job_fails_after_retries(self, store):
        # An unknown protocol parameter fails identically every attempt.
        store.submit(make_spec(params={"k": 3, "bogus": 1}))
        report = run_campaign(store, retries=1)
        assert report.failed == 1
        assert report.retried == 1  # one re-queue before giving up
        job = store.list_jobs(status="failed")[0]
        assert job.attempts == 2
        assert "bogus" in job.error

    def test_failure_does_not_block_other_jobs(self, store):
        store.submit(make_spec(params={"k": 3, "bogus": 1}))
        store.submit(make_spec(seed=1))
        report = run_campaign(store, retries=0)
        assert report.executed == 1
        assert report.failed == 1


class TestRemovedTierRecords:
    """Rows that name a deleted engine tier (``ensemble``) stay
    readable; a queued job naming one fails alone, without blocking
    the rest of the queue."""

    def test_done_row_loads_and_round_trips(self, store):
        from repro.engine import TrialSet, run_trials
        from repro.protocols import uniform_k_partition

        spec = make_spec(engine="ensemble")
        digest, _ = store.submit(spec)
        record = run_trials(uniform_k_partition(3), 9, trials=2, seed=0).to_record()
        record["engine"] = "ensemble"
        for result in record["results"]:
            result["engine"] = "ensemble"
        assert store.claim_next().digest == digest
        store.mark_done(
            digest,
            summary=TrialSet.from_record(record).stats(),
            record=record,
            wall_time=0.1,
        )

        loaded = executor_module.fetch_trial_set(store, spec)
        assert loaded.engine == "ensemble"
        assert loaded.to_record() == record
        assert TrialSet.from_record(loaded.to_record()).to_record() == record

    def test_pending_job_fails_while_others_finish(self, store):
        removed = make_spec(engine="ensemble")
        kept = [make_spec(seed=s) for s in range(1, 3)]
        store.submit_many([removed, *kept])
        report = run_campaign(store)
        assert report.executed == 2
        assert report.failed == 1
        assert store.counts()["done"] == 2
        job = store.get(removed.digest)
        assert job.status == "failed"
        assert "UnknownEngineError" in job.error
        assert "'ensemble'" in job.error and "count" in job.error


class TestInterruption:
    def test_ctrl_c_checkpoints_in_flight_job(self, store, monkeypatch):
        store.submit_many([make_spec(seed=s) for s in range(3)])
        real_execute = executor_module.execute_spec_resumable
        calls = []

        def flaky(spec_dict, store_, **kwargs):
            if len(calls) == 1:
                calls.append("boom")
                raise KeyboardInterrupt
            calls.append("ok")
            return real_execute(spec_dict, store_, **kwargs)

        monkeypatch.setattr(executor_module, "execute_spec_resumable", flaky)
        report = run_campaign(store)
        assert report.interrupted
        assert report.executed == 1
        counts = store.counts()
        # The interrupted job went back to pending — nothing is stuck
        # in 'running', so a plain re-run resumes cleanly.
        assert counts["running"] == 0
        assert counts["pending"] == 2

        monkeypatch.setattr(
            executor_module, "execute_spec_resumable", real_execute
        )
        resumed = run_campaign(store)
        assert not resumed.interrupted
        assert store.counts()["done"] == 3

    def test_report_summary_mentions_interruption(self):
        from repro.campaign import CampaignReport

        report = CampaignReport(executed=1, interrupted=True)
        assert "INTERRUPTED" in report.summary()


def scientific_content(record: dict) -> dict:
    from tests.campaign.test_store import scientific_content as sc

    return sc(record)


class TestMidTrialResume:
    """Killing a job between slices and re-running must reproduce the
    uninterrupted trial records bit-for-bit (minus wall-clock)."""

    @pytest.mark.parametrize("engine", ["count", "batch"])
    def test_kill_resume_matches_uninterrupted(self, store, engine):
        spec = make_spec(n=40, trials=3, seed=7, engine=engine)
        digest, _ = store.submit(spec)
        baseline = executor_module.execute_spec(spec.canonical())

        slices = []

        def bomb(trial_index, interactions):
            slices.append((trial_index, interactions))
            if len(slices) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor_module.execute_spec_resumable(
                spec.canonical(), store, digest=digest,
                checkpoint_interactions=40, on_slice=bomb,
            )
        ckpt = store.load_checkpoint(digest)
        assert ckpt is not None
        assert ckpt["session"] is not None  # killed mid-trial, not at a boundary

        resumed = executor_module.execute_spec_resumable(
            spec.canonical(), store, digest=digest, checkpoint_interactions=40
        )
        assert resumed["resumed"]
        assert scientific_content(resumed["record"]) == \
            scientific_content(baseline["record"])

    def test_run_campaign_resumes_mid_trial(self, store, monkeypatch):
        spec = make_spec(n=40, trials=2, seed=11)
        store.submit(spec)
        baseline = executor_module.execute_spec(spec.canonical())
        real_execute = executor_module.execute_spec_resumable

        def bomb(trial_index, interactions):
            raise KeyboardInterrupt

        def sliced(spec_dict, store_, **kwargs):
            kwargs["checkpoint_interactions"] = 40
            kwargs.setdefault("on_slice", bomb)
            return real_execute(spec_dict, store_, **kwargs)

        monkeypatch.setattr(executor_module, "execute_spec_resumable", sliced)
        report = run_campaign(store)
        assert report.interrupted
        assert store.checkpoint_count() == 1

        def resumable(spec_dict, store_, **kwargs):
            kwargs["checkpoint_interactions"] = 40
            return real_execute(spec_dict, store_, **kwargs)

        monkeypatch.setattr(executor_module, "execute_spec_resumable", resumable)
        report = run_campaign(store)
        assert report.executed == 1
        assert report.resumed == 1
        assert "resumed=1" in report.summary()
        # mark_done cleared the checkpoint row.
        assert store.checkpoint_count() == 0
        assert scientific_content(store.result_record(spec.digest)) == \
            scientific_content(baseline["record"])

    def test_boundary_checkpoint_skips_completed_trials(self, store):
        spec = make_spec(n=30, trials=4, seed=3)
        digest, _ = store.submit(spec)
        baseline = executor_module.execute_spec(spec.canonical())
        # Run trial 0 to completion by hand, then checkpoint the boundary.
        full = executor_module.execute_spec_resumable(
            spec.canonical(), store, digest=digest
        )
        first_two = full["record"]["results"][:2]
        store.save_checkpoint(
            digest, trial_index=2, completed=first_two, session=None
        )
        resumed = executor_module.execute_spec_resumable(
            spec.canonical(), store, digest=digest
        )
        assert resumed["resumed"]
        # Trials 0-1 come verbatim from the checkpoint, 2-3 are re-run.
        assert scientific_content(resumed["record"]) == \
            scientific_content(baseline["record"])


class TestColumnarSink:
    """run_campaign(..., sink=ShardWriter) streams per-trial rows."""

    def drain(self, store, tmp_path, *, workers=0, name="sink"):
        from repro.io.columnar import ShardWriter

        with ShardWriter(tmp_path / name, name="campaign_trials") as sink:
            report = run_campaign(store, workers=workers, sink=sink)
        return report, sink.close()

    def test_one_row_per_trial_per_job(self, store, tmp_path):
        store.submit_many([make_spec(seed=s) for s in range(3)])
        report, cstore = self.drain(store, tmp_path)
        assert report.executed == 3
        assert cstore.rows == 3 * 2  # trials=2 per spec
        rows = list(cstore.iter_rows())
        assert {row["k"] for row in rows} == {3}
        assert {row["trial"] for row in rows} == {0, 1}
        assert all(row["converged"] for row in rows)
        assert all(row["interactions"] > 0 for row in rows)

    def test_redrain_is_idempotent(self, store, tmp_path):
        specs = [make_spec(seed=s) for s in range(2)]
        store.submit_many(specs)
        _, first = self.drain(store, tmp_path)
        assert first.rows == 4
        # Resubmitting the same specs re-executes nothing new into the
        # sink: rows are keyed by job digest.
        store.submit_many(specs)
        run_campaign(store)
        _, second = self.drain(store, tmp_path)
        assert second.rows == 4
        assert sorted(second.keys) == sorted(spec.digest for spec in specs)

    def test_pooled_drain_feeds_sink(self, store, tmp_path):
        store.submit_many([make_spec(seed=s) for s in range(4)])
        report, cstore = self.drain(store, tmp_path, workers=2)
        assert report.executed == 4
        assert cstore.rows == 8

    def test_sink_rows_match_store_payloads(self, store, tmp_path):
        spec = make_spec(seed=5)
        store.submit(spec)
        _, cstore = self.drain(store, tmp_path)
        record = store.result_record(spec.digest)
        rows = list(cstore.iter_rows())
        assert [r["interactions"] for r in rows] == [
            res["interactions"] for res in record["results"]
        ]
        assert {r["engine"] for r in rows} == {record["engine"]}

    def test_trial_sink_rows_are_scalar(self, store, tmp_path):
        spec = make_spec()
        store.submit(spec)
        run_campaign(store)
        record = store.result_record(spec.digest)
        rows = executor_module.trial_sink_rows(spec, {"record": record})
        assert len(rows) == spec.trials
        for row in rows:
            for value in row.values():
                assert value is None or isinstance(
                    value, (bool, int, float, str)
                )


class TestScalingGrid:
    def test_scaling_grid_seeds_match_experiment(self):
        from repro.campaign.grids import experiment_specs
        from repro.experiments.common import point_seed
        from repro.experiments.scaling_law import QUICK_PARAMS, grid_points

        specs = experiment_specs("scaling", quick=True, trials=2, seed=42)
        points = grid_points(QUICK_PARAMS["ks"], QUICK_PARAMS["n_values"])
        assert len(specs) == len(points)
        by_point = {(s.params["k"], s.n): s for s in specs}
        for k, n in points:
            spec = by_point[(k, n)]
            assert spec.seed == point_seed(42, "scaling-law", k, n)
            assert spec.protocol == "uniform-k-partition"
            assert spec.trials == 2
