"""Tests for the shared experiment plumbing."""

from __future__ import annotations

from repro.experiments.common import ProgressPrinter, point_seed, write_outputs
from repro.io import ResultTable


class TestPointSeed:
    def test_deterministic(self):
        assert point_seed(1, "fig3", 4, 10) == point_seed(1, "fig3", 4, 10)

    def test_distinct_per_point(self):
        seeds = {
            point_seed(1, "fig3", k, n)
            for k in (3, 4, 5)
            for n in range(10, 30)
        }
        assert len(seeds) == 60

    def test_distinct_per_experiment_seed(self):
        assert point_seed(1, "x") != point_seed(2, "x")

    def test_fits_in_uint64(self):
        assert 0 <= point_seed(0, "anything", 999) < 2**64


class TestProgressPrinter:
    def test_enabled_writes_stderr(self, capsys):
        printer = ProgressPrinter(enabled=True)
        printer("hello")
        captured = capsys.readouterr()
        assert "hello" in captured.err
        assert captured.out == ""

    def test_disabled_is_silent(self, capsys):
        printer = ProgressPrinter(enabled=False)
        printer("hello")
        captured = capsys.readouterr()
        assert captured.err == ""


class TestTrialsCallback:
    def test_disabled_returns_none(self):
        assert ProgressPrinter(enabled=False).trials("x") is None

    def test_short_points_stay_quiet(self, capsys):
        cb = ProgressPrinter(enabled=True).trials("pt")
        for done in range(1, 8):
            cb(done, 7)
        assert capsys.readouterr().err == ""

    def test_exact_quarter_marks(self, capsys):
        cb = ProgressPrinter(enabled=True).trials("pt")
        for done in range(1, 101):
            cb(done, 100)
        err = capsys.readouterr().err
        for mark in (25, 50, 75):
            assert f"trial {mark}/100" in err
        # Completion (done == total) is the experiment loop's line.
        assert "trial 100/100" not in err

    def test_chunked_reporting_crosses_marks(self, capsys):
        """Regression: ``done % step == 0`` skipped every mark when the
        engine jumps ``done`` by whole chunks that straddle quarter
        boundaries (multi-worker spans)."""
        cb = ProgressPrinter(enabled=True).trials("pt")
        for done in (33, 66, 99):  # never lands exactly on 25/50/75
            cb(done, 100)
        err = capsys.readouterr().err
        assert "trial 33/100" in err
        assert "trial 66/100" in err
        assert "trial 99/100" in err

    def test_marks_fire_once(self, capsys):
        cb = ProgressPrinter(enabled=True).trials("pt")
        for done in (25, 26, 27, 49):  # stays within the first quarter
            cb(done, 100)
        err = capsys.readouterr().err
        assert err.count("pt: trial") == 1


class TestWriteOutputs:
    def test_none_out_dir_is_noop(self):
        t = ResultTable("x")
        t.append(a=1)
        write_outputs(t, None)  # must not raise

    def test_writes_all_artifacts(self, tmp_path):
        t = ResultTable("x")
        t.append(a=1)
        write_outputs(t, tmp_path, render=lambda table: "RENDERED")
        assert (tmp_path / "x.csv").exists()
        assert (tmp_path / "x.json").exists()
        assert (tmp_path / "x.txt").read_text() == "RENDERED\n"

    def test_no_render_skips_txt(self, tmp_path):
        t = ResultTable("y")
        t.append(a=1)
        write_outputs(t, tmp_path)
        assert not (tmp_path / "y.txt").exists()
