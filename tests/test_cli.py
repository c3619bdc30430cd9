"""Unit tests for the command-line interface."""

import argparse

import pytest

from repro.cli import main, parse_machine


class TestParseMachine:
    def test_vliw(self):
        assert parse_machine("vliw4").n_clusters == 4

    def test_raw_mesh(self):
        machine = parse_machine("raw2x4")
        assert (machine.rows, machine.cols) == (2, 4)

    def test_raw_by_count(self):
        assert parse_machine("raw16").n_clusters == 16

    def test_unknown_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_machine("tpu9000")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mxm" in out and "COMM" in out and "convergent" in out

    def test_schedule(self, capsys):
        assert main(
            ["schedule", "--benchmark", "vvmul", "--machine", "vliw4",
             "--scheduler", "uas"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "vvmul" in out

    def test_schedule_render(self, capsys):
        assert main(
            ["schedule", "--benchmark", "vvmul", "--render",
             "--max-cycles", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycle |" in out

    def test_table2_subset(self, capsys):
        assert main(
            ["table2", "--benchmarks", "jacobi", "--sizes", "4", "--fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out and "convergent over rawcc" in out

    def test_fig8_subset(self, capsys):
        assert main(["fig8", "--benchmarks", "vvmul", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "vvmul" in out and "uas" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--sizes", "40,80"]) == 0
        out = capsys.readouterr().out
        assert "pcc" in out and "80" in out

    def test_convergence(self, capsys):
        assert main(
            ["convergence", "--machine", "vliw4", "--benchmarks", "vvmul"]
        ) == 0
        out = capsys.readouterr().out
        assert "vvmul" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--benchmark", "doom"])


class TestAllCommand:
    def test_all_small_and_saves_json(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        # Shrink the sweep so the test stays fast.
        monkeypatch.setattr(cli, "RAW_SUITE", ("jacobi",))
        monkeypatch.setattr(cli, "VLIW_SUITE", ("vvmul",))
        assert cli.main(
            ["all", "--out", str(tmp_path), "--sizes", "4",
             "--scaling-sizes", "40,80"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Figure 8" in out
        saved = sorted(p.name for p in tmp_path.iterdir())
        assert saved == ["fig10.json", "fig7.json", "fig8.json",
                         "fig9.json", "table2.json"]
        from repro.harness import load_result

        table = load_result(tmp_path / "table2.json")
        assert "jacobi" in table.speedups
