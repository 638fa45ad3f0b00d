"""Tests for JSONL trace writing, reading and runner integration."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro import run_trials, uniform_k_partition
from repro.campaign import CampaignStore, JobSpec
from repro.campaign.executor import execute_spec
from repro.io.columnar import ShardWriter
from repro.obs import TraceWriter, read_trace, use_trace_writer
from repro.obs import trace as trace_module
from repro.obs.trace import (
    TRACE_SCHEMA,
    active_trace_writer,
    git_revision,
    provenance,
)


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestProvenance:
    def test_json_safe_and_complete(self):
        prov = provenance()
        json.dumps(prov)
        assert prov["package_version"]
        assert prov["python_version"]
        assert prov["numpy_version"]


class TestGitRevision:
    @pytest.fixture()
    def git_spawns(self, tmp_path, monkeypatch):
        """A fresh process state in a foreign cwd, counting git spawns."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(trace_module, "_GIT_REVISION", [])
        spawns: list[list[str]] = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            if cmd[0] == "git":
                spawns.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        return spawns

    def test_resolved_from_package_dir_not_cwd(self, git_spawns):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=trace_module._PACKAGE_DIR,
            capture_output=True, text=True, check=False,
        )
        expected = out.stdout.strip() if out.returncode == 0 else None
        assert git_revision() == (expected or None)

    def test_spawns_at_most_once_per_process(self, git_spawns, tmp_path):
        rev = git_revision()
        assert len(git_spawns) <= 1
        store = CampaignStore(tmp_path / "campaign.db")
        for seed in range(3):
            digest, _ = store.submit(JobSpec(
                protocol="uniform-k-partition", params={"k": 3}, n=9,
                trials=2, seed=seed,
            ))
            payload = execute_spec(store.claim_next().spec.canonical())
            store.mark_done(
                digest, summary=payload["summary"], record=payload["record"],
                wall_time=payload["wall_time"],
            )
            assert store.get(digest).git_rev == rev
        store.close()
        with ShardWriter(tmp_path / "cols", name="t", params={}) as sink:
            sink.append_keyed("k", [{"x": 1}])
        assert provenance()["git_rev"] == rev
        assert len(git_spawns) <= 1


class TestTraceWriter:
    def test_header_written_on_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, meta={"note": "x"}) as w:
            assert w.records_written == 1
        [header] = read_trace(path)
        assert header["type"] == "header"
        assert header["schema"] == TRACE_SCHEMA
        assert header["meta"] == {"note": "x"}

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.jsonl"
        with TraceWriter(path):
            pass
        assert path.exists()

    def test_append_separates_sessions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path):
            pass
        with TraceWriter(path):
            pass
        records = read_trace(path)
        assert [r["type"] for r in records] == ["header", "header"]

    def test_trial_set_round_trip(self, tmp_path, proto):
        path = tmp_path / "t.jsonl"
        ts = run_trials(proto, 12, trials=3, seed=40)
        with TraceWriter(path) as w:
            w.write_trial_set(ts, seed=40, cached=False, elapsed=0.25)
        records = read_trace(path)
        assert [r["type"] for r in records] == ["header", "trial_set"] + ["trial"] * 3
        summary = records[1]
        assert summary["seed"] == 40
        assert summary["cached"] is False
        assert summary["elapsed_seconds"] == 0.25
        for i, (rec, res) in enumerate(zip(records[2:], ts.results)):
            assert rec["trial_index"] == i
            assert rec["interactions"] == res.interactions
            assert rec["converged"] == res.converged
            assert rec["group_sizes"] == [int(g) for g in res.group_sizes]

    def test_non_int_seed_recorded_as_null(self, tmp_path, proto):
        path = tmp_path / "t.jsonl"
        ts = run_trials(proto, 12, trials=2, seed=41)
        with TraceWriter(path) as w:
            w.write_trial_set(ts, seed=object())
        assert read_trace(path)[1]["seed"] is None


class TestActiveWriter:
    def test_default_is_none(self):
        assert active_trace_writer() is None

    def test_use_trace_writer_installs_and_restores(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl") as w:
            with use_trace_writer(w):
                assert active_trace_writer() is w
            assert active_trace_writer() is None

    def test_runner_writes_through_active_writer(self, tmp_path, proto):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as w, use_trace_writer(w):
            run_trials(proto, 12, trials=4, seed=42)
        records = read_trace(path)
        types = [r["type"] for r in records]
        assert types == ["header", "trial_set", "trial", "trial", "trial", "trial"]

    def test_cache_hits_marked_in_trace(self, tmp_path, proto):
        from repro.engine import InMemoryTrialCache

        path = tmp_path / "t.jsonl"
        cache = InMemoryTrialCache()
        with TraceWriter(path) as w, use_trace_writer(w):
            run_trials(proto, 12, trials=2, seed=43, cache=cache)
            run_trials(proto, 12, trials=2, seed=43, cache=cache)
        sets = [r for r in read_trace(path) if r["type"] == "trial_set"]
        assert [s["cached"] for s in sets] == [False, True]

    def test_nested_none_silences_tracing(self, tmp_path, proto):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as w, use_trace_writer(w):
            with use_trace_writer(None):
                run_trials(proto, 12, trials=2, seed=44)
        assert [r["type"] for r in read_trace(path)] == ["header"]


class TestReadTrace:
    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "header"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_trace(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="objects with a 'type'"):
            read_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "header"}\n\n{"type": "trial"}\n')
        assert len(read_trace(path)) == 2
