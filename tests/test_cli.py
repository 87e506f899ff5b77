"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_describe_parses(self):
        args = build_parser().parse_args(["describe", "ota"])
        assert args.task == "ota"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fidelity_flag(self):
        args = build_parser().parse_args(["--fidelity", "full",
                                          "describe", "ota"])
        assert args.fidelity == "full"


class TestCommands:
    def test_describe_output(self, capsys):
        assert main(["describe", "tia"]) == 0
        out = capsys.readouterr().out
        assert "minimize power" in out
        assert "L1" in out

    def test_describe_unknown_task(self):
        with pytest.raises(SystemExit):
            main(["describe", "rfmixer"])

    def test_netlist_output(self, capsys):
        assert main(["netlist", "ota"]) == 0
        out = capsys.readouterr().out
        assert "two-stage-ota" in out
        assert "M1a" in out
        assert ".end" in out

    def test_netlist_synthetic_rejected(self):
        with pytest.raises(SystemExit):
            main(["netlist", "sphere"])

    @pytest.mark.parametrize("point", ["2.0", "nan"])
    def test_netlist_point_outside_unit_box_exits_two(self, point, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["netlist", "ota", "--point", point])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("repro: error: --point")

    def test_optimize_sphere(self, capsys):
        rc = main(["optimize", "sphere", "--sims", "6", "--init", "8",
                   "--method", "Random"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best FoM" in out
        assert "metrics:" in out

    def test_compare_sphere(self, capsys):
        rc = main(["compare", "sphere", "--methods", "Random,BO",
                   "--runs", "1", "--sims", "5", "--init", "8", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Algorithm" in out
        assert "Random" in out and "BO" in out

    def test_compare_honours_global_corner(self, monkeypatch):
        import repro.experiments

        class Captured(Exception):
            pass

        def fake_run_comparison(task, *args, **kwargs):
            raise Captured(task)

        monkeypatch.setattr(repro.experiments, "run_comparison",
                            fake_run_comparison)
        with pytest.raises(Captured) as caught:
            main(["--corner", "ss", "compare", "ota", "--runs", "1",
                  "--quiet"])
        task = caught.value.args[0]
        assert task.corner == "ss"

    def test_netlist_honours_global_corner(self, capsys):
        assert main(["--corner", "ff", "netlist", "tia"]) == 0
        out = capsys.readouterr().out
        assert "nmos180_f" in out and "pmos180_f" in out

    def test_netlist_prints_corner_model_cards(self, capsys):
        """The deck carries the corner's model cards, not just their names."""
        assert main(["--corner", "ff", "netlist", "tia"]) == 0
        out = capsys.readouterr().out
        assert ".model nmos180_f nmos " in out
        assert ".model pmos180_f pmos " in out
