"""Flow-sensitive RNG provenance checks (rule ids ``flow.rng.*``).

Every stochastic quantity in this repo must flow from a seeded
:class:`numpy.random.Generator` threaded through function parameters (or
seeded instance state) — that is what makes runs reproducible and
checkpoint/resume bit-exact (PR 2).  The syntactic ``code.global-rng``
rule catches ``np.random.uniform`` calls; this pass tracks where a
*generator object* comes from:

* ``flow.rng.no-param`` — a function samples from a module-global
  generator instead of taking an ``rng`` parameter (or using seeded
  ``self.*`` state): callers cannot control its stream, and two call
  orders give two histories.
* ``flow.rng.unseeded`` — ``np.random.default_rng()`` with no seed
  argument outside an entry point (``main``/``cmd_*`` functions, example
  scripts): the stream differs every process, so the run cannot be
  reproduced or resumed.
* ``flow.rng.shared-closure`` — a closure submitted to concurrent
  execution samples from a generator captured from the parent scope:
  workers either share one stream (races, thread path) or each get a
  pickled copy producing *identical* streams (pool path).  Spawn child
  generators instead (``rng.spawn()`` / ``SeedSequence.spawn``).

Provenance the pass accepts as correct: a parameter of the sampling
function (or of any enclosing function, when not concurrently executed),
``self``/``cls`` attribute state, and a local ``default_rng(seed)``
construction with an explicit seed.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

from repro.analysis.codelint import _suppressed, _suppressions
from repro.analysis.diagnostics import Diagnostic, RuleSet, Severity
from repro.analysis.flow import (
    ModuleModel,
    Scope,
    build_module,
    dotted_name,
    iter_python_files,
)

RNG_RULES = RuleSet()
RNG_RULES.add("flow.rng.no-param", Severity.ERROR,
              "function samples from a module-global Generator instead "
              "of a threaded rng parameter")
RNG_RULES.add("flow.rng.unseeded", Severity.WARNING,
              "default_rng() without a seed outside an entry point "
              "(stream differs every process; resume breaks)")
RNG_RULES.add("flow.rng.shared-closure", Severity.ERROR,
              "closure submitted to concurrent execution samples from a "
              "parent-scope Generator (identical or racing streams)")

#: Sampling methods of numpy.random.Generator (and legacy RandomState).
SAMPLER_METHODS = frozenset({
    "random", "uniform", "normal", "standard_normal", "integers",
    "choice", "permutation", "permuted", "shuffle", "exponential",
    "beta", "gamma", "binomial", "poisson", "multivariate_normal",
    "lognormal", "laplace", "triangular", "rayleigh", "dirichlet",
    "geometric", "hypergeometric", "multinomial", "chisquare",
    "standard_cauchy", "standard_exponential", "standard_gamma", "bytes",
    "randint", "rand", "randn",  # legacy RandomState spellings
})

#: Names that look like generator objects.  Deliberately narrow: a false
#: negative is cheap (the sampler-method check still guards), a false
#: positive on e.g. ``gen.send`` would be noise.
_RNG_NAME_HINTS = ("rng", "random_state")


def is_rng_name(name: str, scope: Scope | None = None) -> bool:
    """Heuristic: is ``name`` a Generator-typed variable?"""
    base = name.split(".")[-1].lower()
    if base in _RNG_NAME_HINTS or base.endswith("_rng") \
            or base.startswith("rng_"):
        return True
    if scope is not None:
        annotation = scope.param_annotations.get(name, "")
        if annotation.split(".")[-1] in ("Generator", "RandomState",
                                         "BitGenerator"):
            return True
    return False


def is_entry_point(scope: Scope, path: str) -> bool:
    """Entry points own their seeding policy: ``main``-like functions and
    script/module scopes of ``examples``/``__main__`` files."""
    if scope.name == "main" or scope.name.startswith("cmd_"):
        return True
    parts = pathlib.PurePath(path).parts
    stem = pathlib.PurePath(path).stem
    if scope.is_module and (stem == "__main__" or "examples" in parts):
        return True
    return False


#: Pool/executor submission methods whose first positional argument is the
#: callable shipped to another worker.
_SUBMIT_METHODS = frozenset({
    "map", "starmap", "imap", "imap_unordered",
    "apply_async", "map_async", "starmap_async", "submit",
})
#: Constructors taking the callable as a ``target=``/``initializer=`` kwarg.
_CTOR_KWARGS = {
    "Thread": "target",
    "Process": "target",
    "Pool": "initializer",
    "Timer": "function",
}


@dataclass(frozen=True)
class Submission:
    """One callable shipped to concurrent execution."""

    func: ast.expr          # the callable expression as written
    lineno: int             # line of the submitting call


def find_submissions(scope: Scope) -> list[Submission]:
    """Concurrency submission call sites inside one scope."""
    out: list[Submission] = []
    for site in scope.calls:
        callee = site.callee
        if not callee:
            continue
        last = callee.split(".")[-1]
        func: ast.expr | None = None
        if last in _SUBMIT_METHODS and "." in callee:
            if site.node.args:
                func = site.node.args[0]
        elif last in _CTOR_KWARGS:
            wanted = _CTOR_KWARGS[last]
            for kw in site.node.keywords:
                if kw.arg == wanted:
                    func = kw.value
                    break
        if func is not None:
            out.append(Submission(func=func, lineno=site.lineno))
    return out


def _submitted_scopes(mod: ModuleModel) -> set[int]:
    """ids of function scopes submitted to concurrent execution."""
    out: set[int] = set()
    for scope in mod.scopes:
        for sub in find_submissions(scope):
            if isinstance(sub.func, ast.Lambda):
                for child in scope.children:
                    if child.node is sub.func:
                        out.add(id(child))
            else:
                name = dotted_name(sub.func)
                if name and "." not in name:
                    owner = scope.resolve(name)
                    if owner is not None and not owner.is_module:
                        for child in owner.children:
                            if child.name == name:
                                out.add(id(child))
    return out


def check_module(mod: ModuleModel) -> list[Diagnostic]:
    """Run every ``flow.rng.*`` rule over one parsed module."""
    findings: list[tuple[int, Diagnostic]] = []
    submitted = _submitted_scopes(mod)

    def emit(lineno: int, rule: str, message: str, fix: str = "") -> None:
        findings.append((lineno, RNG_RULES.diag(
            rule, message, location=f"{mod.path}:{lineno}", fix=fix)))

    for scope in mod.scopes:
        if scope.is_class:
            continue
        entry = is_entry_point(scope, mod.path)

        # -- unseeded default_rng() anywhere in a non-entry-point scope ------
        if not entry:
            for site in scope.calls:
                if site.callee.split(".")[-1] != "default_rng":
                    continue
                if not site.node.args and not site.node.keywords:
                    where = ("module level" if scope.is_module
                             else f"function {scope.name!r}")
                    emit(site.lineno, "flow.rng.unseeded",
                         f"default_rng() without a seed at {where}",
                         fix="accept an rng/seed parameter and derive the "
                             "generator from it")

        # -- sampling provenance ---------------------------------------------
        for site in scope.calls:
            callee = site.callee
            if "." not in callee:
                continue
            base, method = callee.rsplit(".", 1)
            if method not in SAMPLER_METHODS:
                continue
            root = base.split(".")[0]
            if root in ("self", "cls"):
                continue  # seeded instance state (checked at __init__)
            if "." in base:
                continue  # foo.bar.normal(...): provenance untrackable
            if not is_rng_name(base, scope):
                continue
            owner = scope.resolve(base)
            if owner is None:
                continue  # imported / builtin: other rules cover it
            if owner is scope:
                continue  # parameter or local construction (checked above)
            if owner.is_module:
                emit(site.lineno, "flow.rng.no-param",
                     f"function {scope.name!r} samples from module-global "
                     f"generator {base!r} without taking an rng parameter",
                     fix="thread the Generator through a parameter")
            elif id(scope) in submitted:
                emit(site.lineno, "flow.rng.shared-closure",
                     f"concurrently-executed closure {scope.name!r} "
                     f"samples from generator {base!r} captured from "
                     f"{owner.name!r} — streams race or repeat",
                     fix="spawn per-task generators (rng.spawn(n)) and "
                         "pass one to each submission")

    suppressions = _suppressions(mod.source)
    return [diag for lineno, diag in findings
            if not _suppressed(diag, lineno, suppressions)]


def check_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Run the RNG-flow pass over one module's source text."""
    try:
        mod = build_module(source, path=path)
    except SyntaxError as exc:
        return [Diagnostic(rule="code.syntax", severity=Severity.ERROR,
                           message=f"syntax error: {exc.msg}",
                           location=f"{path}:{exc.lineno or 0}")]
    return check_module(mod)


def check_paths(paths) -> list[Diagnostic]:
    """Run the RNG-flow pass over files and/or directory trees."""
    diags: list[Diagnostic] = []
    for f in iter_python_files(paths):
        diags.extend(check_source(f.read_text(encoding="utf-8"),
                                  path=str(f)))
    return diags


__all__ = [
    "RNG_RULES",
    "SAMPLER_METHODS",
    "Submission",
    "check_module",
    "check_paths",
    "check_source",
    "find_submissions",
    "is_entry_point",
    "is_rng_name",
]
