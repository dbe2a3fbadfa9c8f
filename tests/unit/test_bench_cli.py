"""Tests for the ``python -m repro.bench`` CLI and CSV export."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.figures import FIGURES


class TestCli:
    def test_all_figures(self, capsys):
        assert bench_main([]) == 0
        out = capsys.readouterr().out
        for fig in ("FIG10", "FIG11", "FIG12", "FIG13", "FIG14", "FIG15"):
            assert fig in out

    def test_single_figure(self, capsys):
        assert bench_main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "FIG14" in out
        assert "FIG10" not in out
        assert "MPICH-MX" in out

    def test_summaries(self, capsys):
        assert bench_main(["--summaries"]) == 0
        out = capsys.readouterr().out
        assert "FastEthernet" in out and "Myrinet2G" in out

    def test_unknown_figure(self, capsys):
        assert bench_main(["FIG99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_csv_export(self, tmp_path, capsys):
        assert bench_main(["FIG10", "FIG15", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "FIG10.csv").exists()
        assert (tmp_path / "FIG15.csv").exists()
        header = (tmp_path / "FIG15.csv").read_text().splitlines()[0]
        assert header.startswith("size_bytes,")
        assert "MPICH-MX" in header

    def test_csv_unknown_figure(self, tmp_path, capsys):
        assert bench_main(["FIG99", "--csv", str(tmp_path)]) == 2

    def test_plot_mode(self, capsys):
        assert bench_main(["FIG15", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "MPICH-MX" in out
        assert "|" in out  # chart borders

    def test_plot_unknown_figure(self, capsys):
        assert bench_main(["FIG99", "--plot"]) == 2

    def test_removed_modes_point_at_perf(self, capsys):
        # Live ping-pong and thread-rate runs belong to perf/run.py; the
        # bare flags are usage errors, not a second benchmark.
        for argv in (["--json"], ["--quick"], ["--threads"]):
            with pytest.raises(SystemExit) as exc:
                bench_main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            if argv != ["--threads"]:
                assert "perf/run.py" in err, argv


class TestAsciiPlot:
    def test_every_series_gets_a_glyph(self):
        from repro.bench.plot import ascii_plot

        fig = FIGURES["FIG11"]()
        text = ascii_plot(fig)
        for name in fig.series:
            assert name in text

    def test_log_y(self):
        from repro.bench.plot import ascii_plot

        fig = FIGURES["FIG10"]()
        text = ascii_plot(fig, log_y=True)
        assert "Time (us)" in text

    def test_dimensions(self):
        from repro.bench.plot import ascii_plot

        fig = FIGURES["FIG13"]()
        text = ascii_plot(fig, width=40, height=10)
        chart_rows = [l for l in text.splitlines() if l.rstrip().endswith("|")]
        assert len(chart_rows) == 10


class TestCsvExport:
    def test_csv_shape(self):
        fig = FIGURES["FIG11"]()
        csv = fig.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("size_bytes,")
        assert len(lines) == 1 + len(fig.sizes)
        header_cols = lines[0].split(",")
        assert len(header_cols) == 1 + len(fig.series)
        first = lines[1].split(",")
        assert int(first[0]) == fig.sizes[0]

    def test_csv_values_match_series(self):
        fig = FIGURES["FIG15"]()
        lines = fig.to_csv().splitlines()
        names = lines[0].split(",")[1:]
        col = names.index("MPJ Express") + 1
        row = lines[-1].split(",")
        assert float(row[col]) == pytest.approx(
            fig.series["MPJ Express"][-1], rel=1e-5
        )


class TestCollectivesCli:
    def test_collectives_flag_writes_json(self, tmp_path, capsys, monkeypatch):
        import repro.bench.collectives as coll

        seen = {}

        def fake_bench(nprocs, device, quick, progress):
            seen.update(nprocs=nprocs, device=device, quick=quick)
            return {"benchmark": "collectives", "cells": {}}

        monkeypatch.setattr(coll, "run_collectives_bench", fake_bench)
        out = tmp_path / "coll.json"
        assert bench_main(
            ["--json", "--collectives", "--nprocs", "4", "--out", str(out)]
        ) == 0
        assert seen == {"nprocs": 4, "device": "smdev", "quick": False}
        import json

        assert json.loads(out.read_text())["benchmark"] == "collectives"

    def test_tune_coll_writes_table(self, tmp_path, capsys, monkeypatch):
        import repro.bench.collectives as coll
        from repro.mpi.tuning import DecisionTable, Rule

        table = DecisionTable({"bcast": [Rule("linear", max_bytes=64)]})

        def fake_tune(nprocs, device, quick, progress):
            return table, {"bcast/1024": {"linear": 1.0, "binomial": 2.0}}

        monkeypatch.setattr(coll, "tune_collectives", fake_tune)
        out = tmp_path / "tuned.json"
        assert bench_main(["tune-coll", "--out", str(out)]) == 0
        loaded = DecisionTable.load(str(out))
        assert loaded.choose("bcast", 64, 8) == "linear"
        err = capsys.readouterr().err
        assert "bcast/1024" in err  # measured cells echoed for the log

    def test_tune_coll_prints_without_out(self, capsys, monkeypatch):
        import repro.bench.collectives as coll
        from repro.mpi.tuning import DecisionTable

        monkeypatch.setattr(
            coll, "tune_collectives", lambda **kw: (DecisionTable({}), {})
        )
        assert bench_main(["tune-coll"]) == 0
        out = capsys.readouterr().out
        assert "repro-coll-tuning-v1" in out
