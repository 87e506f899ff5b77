"""Tests for the ``repro lint`` CLI command."""

import json
import pathlib

import pytest

from repro.cli import main

BROKEN_DECK = """\
V1 a 0 DC 1.8
V2 a 0 DC 3.3
R1 a dangle 1k
.end
"""

CLEAN_DECK = """\
V1 in 0 DC 1
R1 in out 1k
R2 out 0 1k
.end
"""


@pytest.fixture
def broken_deck(tmp_path):
    path = tmp_path / "broken.sp"
    path.write_text(BROKEN_DECK, encoding="utf-8")
    return str(path)


@pytest.fixture
def clean_deck(tmp_path):
    path = tmp_path / "clean.sp"
    path.write_text(CLEAN_DECK, encoding="utf-8")
    return str(path)


class TestDeckTargets:
    def test_broken_deck_exits_one(self, broken_deck, capsys):
        assert main(["lint", broken_deck]) == 1
        out = capsys.readouterr().out
        assert "erc.vsource-loop" in out
        assert "erc.floating-node" in out
        assert "error(s)" in out

    def test_clean_deck_exits_zero(self, clean_deck, capsys):
        assert main(["lint", clean_deck]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_shipped_example_is_broken(self, capsys):
        example = (pathlib.Path(__file__).resolve().parents[2]
                   / "examples" / "broken_netlist.sp")
        assert main(["lint", str(example)]) == 1
        out = capsys.readouterr().out
        for rule in ("erc.vsource-loop", "erc.floating-node",
                     "erc.no-dc-path", "erc.unit-suffix"):
            assert rule in out

    def test_json_format(self, broken_deck, capsys):
        assert main(["lint", broken_deck, "--format", "json"]) == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert all(r["target"] == broken_deck for r in records)
        assert {"erc.vsource-loop", "erc.floating-node"} \
            <= {r["rule"] for r in records}

    def test_select_and_ignore(self, broken_deck, capsys):
        # Ignoring every firing rule leaves nothing -> exit 0.
        assert main(["lint", broken_deck, "--ignore", "erc"]) == 0
        assert main(["lint", broken_deck,
                     "--select", "erc.floating-node"]) == 1
        out = capsys.readouterr().out
        assert "erc.vsource-loop" not in out


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


BAD_FLOW = ("import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "def sample(n):\n"
            "    return rng.uniform(size=n)\n")


class TestPrefixValidation:
    def test_unknown_select_prefix_exits_two(self, clean_deck, capsys):
        assert main(["lint", clean_deck, "--select", "bogus.rule"]) == 2
        assert "matching no registered rule" in capsys.readouterr().err

    def test_unknown_ignore_prefix_exits_two(self, clean_deck, capsys):
        assert main(["lint", clean_deck, "--ignore", "nope"]) == 2

    def test_known_prefixes_accepted(self, clean_deck):
        assert main(["lint", clean_deck, "--select", "erc",
                     "--ignore", "erc.unit-suffix"]) == 0

    def test_flow_and_shape_prefixes_registered(self, clean_deck):
        assert main(["lint", clean_deck, "--select", "flow.rng",
                     "--ignore", "shape"]) == 0


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

    def test_shapes_alone_is_a_valid_invocation(self, capsys):
        assert main(["lint", "--shapes"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repo_gate_invocation_with_baseline(self, monkeypatch, capsys):
        # The exact CI gate: every pass on every python tree, screened
        # by the committed baseline, must exit 0.  The ratchet has
        # closed — the baseline is empty, so nothing may be suppressed
        # either.
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert main(["lint", "--code", "src/repro", "--code", "examples",
                     "--code", "benchmarks", "--flow", "--shapes",
                     "--baseline", "lint-baseline.json"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out
        assert "baseline-suppressed" not in out

    def test_all_shorthand_runs_every_pass(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FLOW, encoding="utf-8")
        assert main(["lint", "--all", "--code", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "flow.rng.no-param" in out
        assert "== shapes ==" in out


class TestRemovedOptions:
    @pytest.mark.parametrize("flag", ["--locks", "--taint", "--proto",
                                      "--proto-doc=x", "--cache=x",
                                      "--no-cache"])
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


class TestBaselineFlags:
    def test_update_then_screen_then_ratchet(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FLOW, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        # 1. freeze the pre-existing finding
        assert main(["lint", "--code", str(bad), "--flow",
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert "froze 1 finding(s)" in capsys.readouterr().out
        # 2. screened run is clean
        assert main(["lint", "--code", str(bad), "--flow",
                     "--baseline", str(baseline)]) == 0
        assert "1 baseline-suppressed" in capsys.readouterr().out
        # 3. a NEW finding still fails
        bad.write_text(BAD_FLOW + "import pickle\n", encoding="utf-8")
        assert main(["lint", "--code", str(bad), "--flow",
                     "--baseline", str(baseline)]) == 1
        assert "code.pickle" in capsys.readouterr().out

    def test_missing_baseline_file_is_strict(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FLOW, encoding="utf-8")
        assert main(["lint", "--code", str(bad), "--flow",
                     "--baseline", str(tmp_path / "absent.json")]) == 1


class TestSarifOut:
    def test_sarif_written_with_new_findings_only(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n", encoding="utf-8")
        sarif = tmp_path / "out.sarif"
        assert main(["lint", "--code", str(bad),
                     "--sarif-out", str(sarif)]) == 1
        doc = json.loads(sarif.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["code.pickle"]
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"flow.rng.no-param", "shape.critic-io",
                "erc.floating-node"} <= rule_ids
