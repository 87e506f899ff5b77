"""Shared diagnostic model for every static analyzer in :mod:`repro.analysis`.

A :class:`Diagnostic` is one finding: a rule id (hierarchical, e.g.
``erc.no-ground`` / ``cfg.elite-vs-budget`` / ``code.bare-except``), a
:class:`Severity`, a location string, a human message and an optional
suggested fix.  Every analyzer (ERC, config cross-validation, codelint,
RNG provenance) emits this type, so the CLI, the pre-simulation gate and
CI share one rendering / filtering / exit-code convention:

* ``render_text`` — one ``severity rule location: message`` line each;
* ``filter_diagnostics`` — ``--select`` / ``--ignore`` by rule-id prefix;
* ``exit_code`` — 0 clean, 1 when any error-severity finding remains.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field


class Severity(enum.IntEnum):
    """Finding severity; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``rule`` ids are hierarchical (``<analyzer>.<rule-name>``) so prefix
    filters select whole analyzers (``--select erc``) or single rules
    (``--ignore erc.floating-node``).  ``location`` is analyzer-specific:
    an element/node name for ERC, ``field`` for config checks,
    ``path:line`` for codelint.
    """

    rule: str
    severity: Severity
    message: str
    location: str = ""
    fix: str = ""

    def render(self) -> str:
        """One-line human rendering."""
        loc = f" {self.location}:" if self.location else ""
        line = f"{self.severity}: {self.rule}:{loc} {self.message}"
        if self.fix:
            line += f" (fix: {self.fix})"
        return line

    def to_dict(self) -> dict:
        """JSON-safe dict (severity as its lowercase name)."""
        d = asdict(self)
        d["severity"] = str(self.severity)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (used by the analysis cache)."""
        return cls(rule=data["rule"],
                   severity=Severity[str(data["severity"]).upper()],
                   message=data["message"],
                   location=data.get("location", ""),
                   fix=data.get("fix", ""))


@dataclass(frozen=True)
class Rule:
    """Catalog entry: default severity + one-line description."""

    id: str
    severity: Severity
    description: str
    example: str = ""


@dataclass
class RuleSet:
    """A registry of :class:`Rule` entries for one analyzer."""

    rules: dict[str, Rule] = field(default_factory=dict)

    def add(self, rule_id: str, severity: Severity, description: str,
            example: str = "") -> Rule:
        if rule_id in self.rules:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        rule = Rule(rule_id, severity, description, example)
        self.rules[rule_id] = rule
        return rule

    def __iter__(self):
        return iter(self.rules.values())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self.rules

    def diag(self, rule_id: str, message: str, location: str = "",
             fix: str = "", severity: Severity | None = None) -> Diagnostic:
        """Build a diagnostic for a registered rule (severity defaults to
        the catalog entry's)."""
        rule = self.rules[rule_id]
        return Diagnostic(rule=rule.id,
                          severity=severity or rule.severity,
                          message=message, location=location, fix=fix)


def _matches(rule_id: str, prefixes) -> bool:
    """Prefix match on dotted rule ids (``erc`` matches ``erc.no-ground``)."""
    for prefix in prefixes:
        if rule_id == prefix or rule_id.startswith(prefix.rstrip(".") + "."):
            return True
    return False


def filter_diagnostics(diagnostics, select=(), ignore=()):
    """Apply ``--select`` / ``--ignore`` rule-id prefix filters.

    ``select`` keeps only matching rules (empty = keep all); ``ignore``
    then drops matching rules.  Returns a new list.
    """
    out = list(diagnostics)
    if select:
        out = [d for d in out if _matches(d.rule, select)]
    if ignore:
        out = [d for d in out if not _matches(d.rule, ignore)]
    return out


def sort_diagnostics(diagnostics) -> list[Diagnostic]:
    """Stable severity-major ordering (errors first), then rule id."""
    return sorted(diagnostics, key=lambda d: (-int(d.severity), d.rule))


def max_severity(diagnostics) -> Severity | None:
    """Highest severity present, or None for a clean result."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None


def has_errors(diagnostics) -> bool:
    return any(d.severity >= Severity.ERROR for d in diagnostics)


def exit_code(diagnostics) -> int:
    """Conventional process exit code: 1 iff any error-severity finding."""
    return 1 if has_errors(diagnostics) else 0


def render_text(diagnostics, summary: bool = True) -> str:
    """Human-readable report: one line per finding plus a tally line."""
    lines = [d.render() for d in diagnostics]
    if summary:
        n_err = sum(d.severity >= Severity.ERROR for d in diagnostics)
        n_warn = sum(d.severity == Severity.WARNING for d in diagnostics)
        if not diagnostics:
            lines.append("clean: no findings")
        else:
            lines.append(f"{len(lines)} finding(s): "
                         f"{n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)

