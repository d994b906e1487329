"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestExplain:
    def test_prints_plan(self, capsys):
        rc = main(["explain", "--query", "select * from s where x > 0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Filter" in out and "Scan" in out

    def test_prints_specs(self, capsys):
        rc = main(
            ["explain", "--query",
             "select * from s where x > 0 error within 1% sample period 0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "error bound: 0.01 (relative)" in out
        assert "sample period: 0.5" in out

    def test_syntax_error_reported(self, capsys):
        rc = main(["explain", "--query", "selec broken"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_both_modes(self, capsys):
        rc = main(
            ["run", "--query", "select * from objects where x > 0",
             "--workload", "moving", "--tuples", "300",
             "--tolerance", "0.001", "--mode", "both"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "discrete engine:" in out
        assert "continuous engine:" in out
        assert "compression" in out

    def test_discrete_only(self, capsys):
        rc = main(
            ["run", "--query", "select * from objects where x > 0",
             "--workload", "moving", "--tuples", "200",
             "--mode", "discrete"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "discrete engine:" in out
        assert "continuous engine:" not in out

    def test_nyse_workload(self, capsys):
        rc = main(
            ["run", "--query", "select * from trades where price > 0",
             "--workload", "nyse", "--tuples", "300",
             "--mode", "continuous"]
        )
        assert rc == 0
        assert "result segments" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--query", "select * from s", "--workload", "bogus"])

    def test_shards_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["run", "--query", "select * from s", "--shards", "1"])


class TestServe:
    def test_shards_pinned_to_one(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--shards", "1"]).shards == 1
        for bad in ("0", "2"):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", "--shards", bad])


class TestParams:
    def test_prints_table(self, capsys):
        rc = main(["params"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Page pool" in out
        assert "NYSE" in out
