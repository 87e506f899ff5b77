"""Repo-invariant AST linter for the ``repro`` source tree.

PRs 1–2 established conventions the test suite cannot easily police
(they are invisible until a rare codepath runs); this linter makes them
machine-checked so they cannot silently regress:

* ``code.global-rng`` — no module-level :mod:`numpy.random` sampling
  (``np.random.uniform(...)``): all randomness must flow through a
  threaded :class:`numpy.random.Generator` so runs stay reproducible and
  checkpoint/resume stays bit-exact.  ``default_rng`` / ``SeedSequence``
  / ``Generator`` constructions are allowed.
* ``code.pickle`` — no ``pickle`` (or friends) imports and no
  ``np.load(..., allow_pickle=True)``: checkpoints/archives must stay
  safe to load from untrusted files.
* ``code.wallclock`` — no ``time.time()`` / ``datetime.now()`` /
  ``date.today()`` inside ``core/``: the optimizer's timing flows through
  the telemetry clock (``time.perf_counter`` via ``t_wall``), and wall
  dates break resumability.
* ``code.mutable-default`` — no mutable default arguments.
* ``code.bare-except`` — no bare ``except:`` handlers (they swallow
  ``KeyboardInterrupt``/``SystemExit``).
* ``code.thread-lifecycle`` — no ``threading.Thread(...)`` that neither
  passes an explicit ``daemon=`` nor has a ``join()`` anywhere in the
  module: an un-owned non-daemon thread blocks interpreter exit, and an
  unjoined one leaks past its owner's lifetime.

Suppression: append ``# repro: ignore[rule-id, ...]`` (or a blanket
``# repro: ignore``) to the offending line.  Rule ids match by prefix,
so ``# repro: ignore[code.pickle]`` and ``# repro: ignore[code]`` both
silence a pickle finding.
"""

from __future__ import annotations

import ast
import pathlib
import re

from repro.analysis.diagnostics import Diagnostic, RuleSet, Severity
from repro.analysis.flow import dotted_name

CODE_RULES = RuleSet()
CODE_RULES.add("code.global-rng", Severity.ERROR,
               "module-level numpy.random sampling; thread a "
               "numpy.random.Generator instead")
CODE_RULES.add("code.pickle", Severity.ERROR,
               "pickle import or np.load(..., allow_pickle=True); "
               "serialized state must be safe to load")
CODE_RULES.add("code.wallclock", Severity.ERROR,
               "wall-clock call (time.time/datetime.now/date.today) in "
               "core/; use the telemetry clock")
CODE_RULES.add("code.mutable-default", Severity.ERROR,
               "mutable default argument (shared across calls)")
CODE_RULES.add("code.bare-except", Severity.ERROR,
               "bare 'except:' swallows KeyboardInterrupt/SystemExit")
CODE_RULES.add("code.thread-lifecycle", Severity.ERROR,
               "threading.Thread(...) with neither an explicit daemon= "
               "nor a join()/lifecycle owner in the module")

# numpy.random attributes that are fine to reference: constructors of the
# explicit-Generator API, not samplers of the implicit global state.
_ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}
_PICKLE_MODULES = {"pickle", "cPickle", "dill", "shelve", "marshal"}
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "today"),
    ("date", "today"),
}
_MUTABLE_CALLS = {"list", "dict", "set"}

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([^\]]*)\])?")


def _suppressions(source: str) -> dict[int, tuple[str, ...]]:
    """Map line number -> suppressed rule-id prefixes (empty = all)."""
    out: dict[int, tuple[str, ...]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = m.group(1)
        out[lineno] = tuple(
            r.strip() for r in rules.split(",") if r.strip()
        ) if rules else ()
    return out


def _suppressed(diag: Diagnostic, lineno: int,
                suppressions: dict[int, tuple[str, ...]]) -> bool:
    if lineno not in suppressions:
        return False
    prefixes = suppressions[lineno]
    if not prefixes:
        return True
    return any(diag.rule == p or diag.rule.startswith(p.rstrip(".") + ".")
               for p in prefixes)


class _Checker(ast.NodeVisitor):
    """Single-pass visitor collecting findings for one module."""

    def __init__(self, path: str, in_core: bool) -> None:
        self.path = path
        self.in_core = in_core
        self.findings: list[tuple[int, Diagnostic]] = []
        # Thread-lifecycle bookkeeping: ctor sites, and the names that
        # were joined or had .daemon set, resolved in finalize().
        self._threads: list[tuple[ast.Call, str, bool]] = []
        self._thread_targets: dict[int, str] = {}
        self._joined: set[str] = set()
        self._daemon_set: set[str] = set()

    def _emit(self, node: ast.AST, rule: str, message: str,
              fix: str = "") -> None:
        lineno = getattr(node, "lineno", 0)
        self.findings.append((lineno, CODE_RULES.diag(
            rule, message, location=f"{self.path}:{lineno}", fix=fix)))

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _PICKLE_MODULES:
                self._emit(node, "code.pickle",
                           f"import of {alias.name!r}",
                           fix="serialize to npz/json instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _PICKLE_MODULES:
            self._emit(node, "code.pickle",
                       f"import from {node.module!r}",
                       fix="serialize to npz/json instead")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        parts = dotted.split(".") if dotted else []

        # numpy.random.<sampler>(...) via any alias spelled *.random.<name>
        if (len(parts) >= 3 and parts[-2] == "random"
                and parts[0] in ("np", "numpy")
                and parts[-1] not in _ALLOWED_NP_RANDOM):
            self._emit(node, "code.global-rng",
                       f"call to {dotted}() uses the global numpy RNG",
                       fix="thread a np.random.Generator "
                           "(np.random.default_rng(seed))")

        # np.load(..., allow_pickle=True)
        if parts[-1:] == ["load"] and parts[0] in ("np", "numpy"):
            for kw in node.keywords:
                if (kw.arg == "allow_pickle"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    self._emit(node, "code.pickle",
                               "np.load(..., allow_pickle=True) executes "
                               "arbitrary code on crafted files",
                               fix="store plain arrays; load with "
                                   "allow_pickle=False")

        # wall-clock calls, enforced only under core/
        if self.in_core and len(parts) >= 2:
            if (parts[-2], parts[-1]) in _WALLCLOCK_CALLS:
                self._emit(node, "code.wallclock",
                           f"call to {dotted}() reads the wall clock",
                           fix="use time.perf_counter() via the telemetry "
                               "t_wall convention")

        # threading.Thread(...) lifecycle: remember the ctor (with its
        # assignment target, mapped by visit_Assign) and every
        # <name>.join() receiver; finalize() pairs them up.
        if (parts and parts[-1] == "Thread"
                and (len(parts) == 1 or parts[0] == "threading")):
            has_daemon = any(kw.arg == "daemon" for kw in node.keywords)
            self._threads.append(
                (node, self._thread_targets.get(id(node), ""), has_daemon))
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"):
            receiver = dotted_name(node.func.value)
            if receiver:
                self._joined.add(receiver)

        self.generic_visit(node)

    # -- assignments ---------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # Map 'name = threading.Thread(...)' so the ctor knows who owns
        # it, and honor 'name.daemon = ...' as an explicit daemon mark.
        if isinstance(node.value, ast.Call):
            for target in node.targets:
                name = dotted_name(target)
                if name:
                    self._thread_targets[id(node.value)] = name
                    break
        for target in node.targets:
            if isinstance(target, ast.Attribute) and target.attr == "daemon":
                receiver = dotted_name(target.value)
                if receiver:
                    self._daemon_set.add(receiver)
        self.generic_visit(node)

    def finalize(self) -> None:
        """Emit deferred findings (thread-lifecycle needs the whole
        module before it can tell owned threads from leaked ones)."""
        for node, target, has_daemon in self._threads:
            if has_daemon or (target and target in self._daemon_set):
                continue
            if target and target in self._joined:
                continue
            who = f"thread {target!r}" if target else "anonymous thread"
            self._emit(node, "code.thread-lifecycle",
                       f"{who} is created with no explicit daemon= and "
                       f"is never join()ed",
                       fix="pass daemon=True (and stop it explicitly) or "
                           "join() it on the owner's shutdown path")

    # -- defs ----------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS):
                mutable = True
            if mutable:
                self._emit(default, "code.mutable-default",
                           f"function {node.name!r} has a mutable default "
                           f"argument",
                           fix="default to None and create inside the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- handlers ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(node, "code.bare-except",
                       "bare 'except:' catches KeyboardInterrupt and "
                       "SystemExit",
                       fix="catch Exception (or something narrower)")
        self.generic_visit(node)


def _is_core_path(path: str) -> bool:
    return "core" in pathlib.PurePath(path).parts


def lint_source(source: str, path: str = "<string>",
                in_core: bool | None = None) -> list[Diagnostic]:
    """Lint one module's source text; returns diagnostics.

    ``in_core`` overrides the path-based decision of whether the
    ``core/``-only wall-clock rule applies (useful for fixtures).
    Syntax errors surface as a single error-severity finding rather than
    an exception.
    """
    if in_core is None:
        in_core = _is_core_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="code.syntax", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            location=f"{path}:{exc.lineno or 0}")]
    checker = _Checker(path, in_core)
    checker.visit(tree)
    checker.finalize()
    suppressions = _suppressions(source)
    return [diag for lineno, diag in checker.findings
            if not _suppressed(diag, lineno, suppressions)]


def lint_file(path: str | pathlib.Path) -> list[Diagnostic]:
    """Lint one ``.py`` file from disk."""
    p = pathlib.Path(path)
    return lint_source(p.read_text(encoding="utf-8"), path=str(p))


def lint_paths(paths) -> list[Diagnostic]:
    """Lint files and/or directory trees (``.py`` files, recursively)."""
    diags: list[Diagnostic] = []
    for path in paths:
        p = pathlib.Path(path)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                diags.extend(lint_file(f))
        else:
            diags.extend(lint_file(p))
    return diags
