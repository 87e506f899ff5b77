"""Tests for the API-reference generator."""

import pytest

from repro.apidoc import MODULES, build_api_docs, document_module, main


class TestApidoc:
    def test_all_modules_importable_and_documented(self):
        for name in MODULES:
            lines = document_module(name)
            assert lines[0] == f"## `{name}`"

    def test_full_build_mentions_key_classes(self):
        text = build_api_docs()
        for key in ("MAOptimizer", "Circuit", "TwoStageOTA", "BayesOpt",
                    "GaussianProcess", "MLP", "PPOSizer"):
            assert key in text, key

    def test_writes_file(self, tmp_path):
        out = tmp_path / "api.md"
        build_api_docs(out)
        assert out.exists()
        assert out.read_text().startswith("# API reference")

    def test_private_names_excluded(self):
        text = build_api_docs()
        assert "_newton" not in text
        assert "### class `_" not in text


class TestMain:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_positional_output_is_written(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ref.md"]) == 0
        assert (tmp_path / "ref.md").read_text().startswith("# API reference")
        assert capsys.readouterr().out.strip() == "wrote ref.md"
        assert [p.name for p in tmp_path.iterdir()] == ["ref.md"]

    def test_default_output_is_docs_api_md(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "docs").mkdir()
        assert main([]) == 0
        assert (tmp_path / "docs" / "api.md").exists()
