"""``repro.analysis`` — static analysis before anything expensive runs.

MA-Opt's whole premise is a tight simulation budget (Alg. 3: ~200 sims);
a malformed netlist or a self-inconsistent configuration wastes exactly
that resource.  This subsystem catches both *statically*, plus the
invariants that keep runs reproducible, behind one ``ma-opt lint``
command:

* :mod:`repro.analysis.erc` — electrical rule checks over netlists
  (topology + device values), also wired as the pre-simulation gate in
  :class:`~repro.core.parallel.SimulationExecutor`;
* :mod:`repro.analysis.configlint` — cross-field validation of
  :class:`~repro.core.config.MAOptConfig` / run plans / design spaces;
* :mod:`repro.analysis.codelint` — AST linter enforcing repo invariants
  (no global RNG, no pickle, no wall-clock in ``core/``, ...);
* :mod:`repro.analysis.rngflow` — Generator provenance over the shared
  dataflow core (:mod:`repro.analysis.flow`), guarding seeded
  determinism;
* :mod:`repro.analysis.shapes` — symbolic checks of the paper's
  dimensional contracts (critic ``2d -> m+1``, actor ``d -> d``,
  ``N_es`` bound, near-sampling box).

Deployment infrastructure: a committed baseline ratchet that freezes
pre-existing findings while new ones hard-fail
(:mod:`repro.analysis.baseline`), and a SARIF 2.1.0 renderer for GitHub
code scanning (:mod:`repro.analysis.sarif`).

All analyzers emit the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model (rule id,
severity, location, message, suggested fix) rendered as text, JSONL or
SARIF with ``--select``/``--ignore`` filtering and conventional exit
codes.  See ``docs/static_analysis.md`` for the rule catalog.
"""

from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_PATH
from repro.analysis.codelint import (
    CODE_RULES,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.configlint import (
    CFG_RULES,
    ConfigLintError,
    check_config,
    validate_config,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Rule,
    RuleSet,
    Severity,
    exit_code,
    filter_diagnostics,
    has_errors,
    max_severity,
    render_jsonl,
    render_text,
    sort_diagnostics,
)
from repro.analysis.erc import (
    ERC_RULES,
    gate_errors,
    is_simulatable,
    lint_deck,
    run_erc,
)
from repro.analysis.rngflow import RNG_RULES
from repro.analysis.rngflow import check_paths as check_rngflow
from repro.analysis.sarif import render_sarif, to_sarif
from repro.analysis.shapes import SHAPE_RULES, check_shapes

__all__ = [
    "Baseline",
    "CODE_RULES",
    "CFG_RULES",
    "ConfigLintError",
    "DEFAULT_BASELINE_PATH",
    "Diagnostic",
    "ERC_RULES",
    "RNG_RULES",
    "Rule",
    "RuleSet",
    "SHAPE_RULES",
    "Severity",
    "check_config",
    "check_rngflow",
    "check_shapes",
    "exit_code",
    "filter_diagnostics",
    "gate_errors",
    "has_errors",
    "is_simulatable",
    "lint_deck",
    "lint_file",
    "lint_paths",
    "lint_source",
    "max_severity",
    "render_jsonl",
    "render_sarif",
    "render_text",
    "run_erc",
    "sort_diagnostics",
    "to_sarif",
    "validate_config",
]

#: Catalogs of every analyzer, in documentation order.
RULE_SETS = (ERC_RULES, CFG_RULES, CODE_RULES, RNG_RULES, SHAPE_RULES)


def all_rules():
    """Every registered rule across all analyzers (catalog order)."""
    out = []
    for ruleset in RULE_SETS:
        out.extend(ruleset)
    return out
