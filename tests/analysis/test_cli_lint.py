"""Tests for the ``repro lint`` CLI command."""

import json
import pathlib

import pytest

from repro.cli import main

BAD_FLOW = ("import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "def sample(n):\n"
            "    return rng.uniform(size=n)\n")
BAD_CODE = "import pickle\n" + BAD_FLOW


@pytest.fixture
def bad_code(tmp_path):
    """A file that fires ``code.pickle`` and, with --flow,
    ``flow.rng.no-param``."""
    path = tmp_path / "bad.py"
    path.write_text(BAD_CODE, encoding="utf-8")
    return str(path)


class TestOutputOptions:
    def test_json_format(self, bad_code, capsys):
        assert main(["lint", "--code", bad_code, "--flow",
                     "--format", "json"]) == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert all(r["target"] == bad_code for r in records)
        assert {"code.pickle", "flow.rng.no-param"} \
            <= {r["rule"] for r in records}

    def test_select_and_ignore(self, bad_code, capsys):
        # Ignoring every firing rule leaves nothing -> exit 0.
        assert main(["lint", "--code", bad_code, "--flow",
                     "--ignore", "code", "--ignore", "flow"]) == 0
        assert main(["lint", "--code", bad_code, "--flow",
                     "--select", "code.pickle"]) == 1
        out = capsys.readouterr().out
        assert "flow.rng" not in out


class TestTaskTargets:
    def test_paper_tasks_lint_clean(self, capsys):
        assert main(["lint", "ota", "tia", "ldo"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean: no findings") == 3
        assert "== ota ==" in out

    def test_unknown_target_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "rfmixer"])
        assert excinfo.value.code == 2

    def test_deck_file_is_not_a_target(self, tmp_path, capsys):
        deck = tmp_path / "divider.sp"
        deck.write_text("V1 in 0 DC 1\nR1 in 0 1k\n.end\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(deck)])
        assert excinfo.value.code == 2
        assert "not a task name" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["2.0", "-0.1", "nan"])
    def test_point_outside_unit_box_exits_two(self, point, capsys):
        # A normalized coordinate outside [0, 1] would lint a design
        # outside the declared bounds (or crash in denormalize on nan).
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "ota", "--point", point])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: --point")
        assert "clean" not in captured.out


class TestConfigAndCode:
    def test_config_mode(self, capsys):
        assert main(["lint", "--config", "--task", "ota",
                     "--sims", "200", "--init", "100"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_code_mode_on_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n", encoding="utf-8")
        assert main(["lint", "--code", str(bad)]) == 1
        assert "code.pickle" in capsys.readouterr().out

    def test_code_mode_missing_path(self):
        with pytest.raises(SystemExit):
            main(["lint", "--code", "/no/such/path"])

    def test_nothing_to_lint_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err


class TestPrefixValidation:
    def test_unknown_select_prefix_exits_two(self, capsys):
        assert main(["lint", "ota", "--select", "bogus.rule"]) == 2
        assert "matching no registered rule" in capsys.readouterr().err

    def test_unknown_ignore_prefix_exits_two(self, capsys):
        assert main(["lint", "ota", "--ignore", "nope"]) == 2

    def test_known_prefixes_accepted(self):
        assert main(["lint", "ota", "--select", "erc",
                     "--ignore", "erc.name-collision"]) == 0

    def test_flow_prefix_registered(self, capsys):
        assert main(["lint", "ota", "--select", "flow.rng"]) == 0
        # No registered rule starts with "shape".
        assert main(["lint", "ota", "--ignore", "shape"]) == 2
        assert "shape" in capsys.readouterr().err


class TestFlowAndShapes:
    def test_flow_finds_global_rng_sampling(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FLOW, encoding="utf-8")
        assert main(["lint", "--code", str(bad), "--flow"]) == 1
        assert "flow.rng.no-param" in capsys.readouterr().out

    def test_without_flow_flag_silent(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FLOW, encoding="utf-8")
        assert main(["lint", "--code", str(bad)]) == 0

    def test_repo_gate_has_no_findings(self, monkeypatch, capsys):
        # The exact CI gate: codelint plus the flow pass on every python
        # tree must exit 0 with no finding at all, warnings included.
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert main(["lint", "--code", "src/repro", "--code", "examples",
                     "--code", "benchmarks", "--flow"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean: no findings") == 3


class TestRemovedOptions:
    @pytest.mark.parametrize("flag", ["--locks", "--taint", "--proto",
                                      "--proto-doc=x", "--cache=x",
                                      "--no-cache", "--shapes", "--all",
                                      "--baseline=x", "--update-baseline",
                                      "--sarif-out=x"])
    def test_deleted_lint_options_are_unknown(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "ota", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sanitize_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sanitize", "optimize", "sphere"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

