"""Tests for the shared diagnostic model."""

import pytest

from repro.analysis.diagnostics import (
    Diagnostic,
    RuleSet,
    Severity,
    exit_code,
    filter_diagnostics,
    has_errors,
    max_severity,
    render_text,
    sort_diagnostics,
)


def d(rule, severity=Severity.ERROR, message="msg", location="", fix=""):
    return Diagnostic(rule=rule, severity=severity, message=message,
                      location=location, fix=fix)


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def test_str_is_lowercase_name(self):
        assert str(Severity.WARNING) == "warning"


class TestDiagnostic:
    def test_render_with_location_and_fix(self):
        diag = d("erc.x", message="boom", location="R1", fix="do y")
        assert diag.render() == "error: erc.x: R1: boom (fix: do y)"

    def test_render_without_location(self):
        assert d("erc.x", message="boom").render() == "error: erc.x: boom"

    def test_to_dict_severity_is_string(self):
        out = d("erc.x", Severity.WARNING).to_dict()
        assert out["severity"] == "warning"
        assert out["rule"] == "erc.x"


class TestRuleSet:
    def test_diag_uses_catalog_severity(self):
        rs = RuleSet()
        rs.add("a.b", Severity.WARNING, "desc")
        assert rs.diag("a.b", "m").severity == Severity.WARNING
        assert rs.diag("a.b", "m", severity=Severity.ERROR).severity \
            == Severity.ERROR

    def test_duplicate_id_rejected(self):
        rs = RuleSet()
        rs.add("a.b", Severity.ERROR, "desc")
        with pytest.raises(ValueError):
            rs.add("a.b", Severity.ERROR, "again")

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            RuleSet().diag("missing", "m")


class TestFiltering:
    DIAGS = [d("erc.no-ground"), d("erc.floating-node"),
             d("cfg.elite-vs-init", Severity.WARNING)]

    def test_select_prefix_keeps_analyzer(self):
        kept = filter_diagnostics(self.DIAGS, select=["erc"])
        assert [x.rule for x in kept] == ["erc.no-ground",
                                         "erc.floating-node"]

    def test_select_exact_rule(self):
        kept = filter_diagnostics(self.DIAGS, select=["erc.no-ground"])
        assert [x.rule for x in kept] == ["erc.no-ground"]

    def test_prefix_does_not_match_mid_token(self):
        # 'erc.no' must not match 'erc.no-ground' (not a dotted segment).
        assert filter_diagnostics(self.DIAGS, select=["erc.no"]) == []

    def test_ignore_drops(self):
        kept = filter_diagnostics(self.DIAGS, ignore=["erc"])
        assert [x.rule for x in kept] == ["cfg.elite-vs-init"]

    def test_select_then_ignore(self):
        kept = filter_diagnostics(self.DIAGS, select=["erc"],
                                  ignore=["erc.floating-node"])
        assert [x.rule for x in kept] == ["erc.no-ground"]


class TestAggregates:
    def test_sort_severity_major(self):
        out = sort_diagnostics([d("b.w", Severity.WARNING), d("a.e"),
                                d("c.e")])
        assert [x.rule for x in out] == ["a.e", "c.e", "b.w"]

    def test_max_severity_and_has_errors(self):
        assert max_severity([]) is None
        assert max_severity([d("a", Severity.WARNING)]) == Severity.WARNING
        assert not has_errors([d("a", Severity.WARNING)])
        assert has_errors([d("a", Severity.WARNING), d("b")])

    def test_exit_code(self):
        assert exit_code([]) == 0
        assert exit_code([d("a", Severity.WARNING)]) == 0
        assert exit_code([d("a")]) == 1


class TestRendering:
    def test_text_summary_tallies(self):
        text = render_text([d("a"), d("b", Severity.WARNING)])
        assert "2 finding(s): 1 error(s), 1 warning(s)" in text

    def test_text_clean(self):
        assert render_text([]) == "clean: no findings"
