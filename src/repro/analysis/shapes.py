"""Symbolic shape/dimension contract checks (rule ids ``shape.*``).

The paper fixes the networks' dimensional contracts: the critic maps the
doubled design space to the metric vector (``(x, Δx) ∈ D^{2d} → m+1``
metrics, Eq. 4), each actor is square (``D^d → D^d``, Eqs. 5–6), and the
elite set holds ``N_es`` designs ranked out of the population (Eq. 2).
A transposed width or an off-by-one metric column trains without error —
numpy broadcasts — and silently degrades every downstream number, the
failure mode DNN-Opt's authors call out for surrogate pipelines.

This pass evaluates those contracts *statically*, by symbolic evaluation
over the construction sites:

* ``shape.critic-io`` — the ``MLP([...])`` built inside ``Critic`` must
  start at ``2*d`` and end at ``n_metrics`` (symbolically, in terms of
  the constructor's parameters);
* ``shape.actor-io`` — the actor's MLP must start and end at ``d``;
* ``shape.critic-metrics`` — every ``Critic(...)``/``CriticEnsemble(...)``
  construction site whose metric-width argument resolves to an
  ``<x>.m``-anchored expression must pass exactly ``m + 1`` (the FoM
  column rides along with the m constraint metrics);
* ``shape.mlp-sizes`` — a literal MLP size list must have at least an
  input and an output width, every constant entry positive;
* ``shape.elite-bound`` — the configured elite-set sizes (dataclass
  default and tuned override) must not exceed the initial population
  they rank (Eq. 2 needs ``N_es ≤ |X^tot|`` at the first ranking);
* ``shape.ns-box`` — the near-sampling defaults must describe a real
  box: ``ns_samples ≥ 1``, ``0 < ns_radius ≤ 0.5`` (the box stays inside
  the unit cube), ``0 ≤ ns_phase < t_ns``.

Symbolic values are linear expressions over dotted names (``2*d``,
``task.m + 1``) folded through straight-line local assignments — enough
to follow ``n_metrics = task.m + 1`` into a constructor call.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field

from repro.analysis.codelint import _suppressed, _suppressions
from repro.analysis.diagnostics import Diagnostic, RuleSet, Severity
from repro.analysis.flow import dotted_name

SHAPE_RULES = RuleSet()
SHAPE_RULES.add("shape.critic-io", Severity.ERROR,
                "critic MLP does not map (x, dx) in D^{2d} to the m+1 "
                "metric vector (Eq. 4)")
SHAPE_RULES.add("shape.actor-io", Severity.ERROR,
                "actor MLP is not square D^d -> D^d (Eqs. 5-6)")
SHAPE_RULES.add("shape.critic-metrics", Severity.ERROR,
                "critic construction site passes a metric width other "
                "than m + 1")
SHAPE_RULES.add("shape.mlp-sizes", Severity.ERROR,
                "malformed MLP size list (fewer than two widths, or a "
                "nonpositive constant width)")
SHAPE_RULES.add("shape.elite-bound", Severity.ERROR,
                "configured elite-set size exceeds the initial "
                "population it ranks (Eq. 2: N_es <= |X^tot|)")
SHAPE_RULES.add("shape.ns-box", Severity.ERROR,
                "near-sampling defaults do not describe a valid box "
                "(ns_samples >= 1, 0 < ns_radius <= 0.5, "
                "0 <= ns_phase < t_ns)")
SHAPE_RULES.add("shape.contract-missing", Severity.WARNING,
                "a contract site (class / MLP call / config field) could "
                "not be located — the checker is blind there")


# -- symbolic linear expressions ---------------------------------------------

@dataclass(frozen=True)
class Sym:
    """``const + Σ coeff·var`` over dotted variable names."""

    const: float = 0.0
    terms: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, const: float = 0.0, **terms: float) -> "Sym":
        return cls(const=const,
                   terms=tuple(sorted((v, c) for v, c in terms.items()
                                      if c != 0)))

    @classmethod
    def var(cls, name: str, coeff: float = 1.0) -> "Sym":
        return cls(terms=((name, coeff),) if coeff else ())

    def _as_dict(self) -> dict[str, float]:
        return dict(self.terms)

    def __add__(self, other: "Sym") -> "Sym":
        terms = self._as_dict()
        for v, c in other.terms:
            terms[v] = terms.get(v, 0.0) + c
        return Sym(const=self.const + other.const,
                   terms=tuple(sorted((v, c) for v, c in terms.items()
                                      if c != 0)))

    def __neg__(self) -> "Sym":
        return Sym(const=-self.const,
                   terms=tuple((v, -c) for v, c in self.terms))

    def scaled(self, k: float) -> "Sym":
        if k == 0:
            return Sym()
        return Sym(const=self.const * k,
                   terms=tuple((v, c * k) for v, c in self.terms))

    @property
    def is_const(self) -> bool:
        return not self.terms

    def anchored_on(self, suffix: str) -> bool:
        """True when some variable ends with ``suffix`` (e.g. ``.m``)."""
        return any(v == suffix.lstrip(".") or v.endswith(suffix)
                   for v, _ in self.terms)

    def __str__(self) -> str:
        parts = []
        for v, c in self.terms:
            parts.append(v if c == 1 else f"{c:g}*{v}")
        if self.const or not parts:
            parts.append(f"{self.const:g}")
        return " + ".join(parts)


def sym_eval(node: ast.expr | None,
             env: dict[str, Sym] | None = None) -> Sym | None:
    """Evaluate an expression to a :class:`Sym`, or None when nonlinear /
    dynamic.  ``env`` maps local names to already-resolved values."""
    env = env or {}
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)):
            return None
        return Sym(const=float(node.value))
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        if not name:
            return None
        if name in env:
            return env[name]
        return Sym.var(name)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = sym_eval(node.operand, env)
        return -inner if inner is not None else None
    if isinstance(node, ast.BinOp):
        left = sym_eval(node.left, env)
        right = sym_eval(node.right, env)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left + (-right)
        if isinstance(node.op, ast.Mult):
            if left.is_const:
                return right.scaled(left.const)
            if right.is_const:
                return left.scaled(right.const)
    return None


# -- AST helpers --------------------------------------------------------------

def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _calls_named(tree: ast.AST, name: str) -> list[ast.Call]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee.split(".")[-1] == name:
                out.append(node)
    return out


def _straightline_env(fn: ast.FunctionDef) -> dict[str, Sym]:
    """Fold single-target straight-line assignments into a Sym env."""
    env: dict[str, Sym] = {}
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            value = sym_eval(stmt.value, env)
            if value is not None:
                env[stmt.targets[0].id] = value
    return env


def _mlp_size_list(call: ast.Call) -> ast.List | None:
    if call.args and isinstance(call.args[0], ast.List):
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "sizes" and isinstance(kw.value, ast.List):
            return kw.value
    return None


def _arg(call: ast.Call, position: int, keyword: str) -> ast.expr | None:
    """A call argument by position (0-based, self excluded) or keyword."""
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


# -- the contract checks ------------------------------------------------------

def check_networks_source(source: str,
                          path: str = "core/networks.py"
                          ) -> list[Diagnostic]:
    """Critic/Actor IO contracts inside the networks module."""
    findings: list[tuple[int, Diagnostic]] = []

    def emit(lineno: int, rule: str, message: str, fix: str = "",
             severity: Severity | None = None) -> None:
        findings.append((lineno, SHAPE_RULES.diag(
            rule, message, location=f"{path}:{lineno}", fix=fix,
            severity=severity)))

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(rule="code.syntax", severity=Severity.ERROR,
                           message=f"syntax error: {exc.msg}",
                           location=f"{path}:{exc.lineno or 0}")]

    contracts = (
        # class, rule, params (d-index, width-index), in-spec, out-spec
        ("Critic", "shape.critic-io",
         lambda d, w: (Sym.var(d, 2.0), Sym.var(w))),
        ("Actor", "shape.actor-io",
         lambda d, w: (Sym.var(d), Sym.var(d))),
    )
    for cls_name, rule, spec in contracts:
        cls = _find_class(tree, cls_name)
        if cls is None:
            emit(0, "shape.contract-missing",
                 f"class {cls_name!r} not found in {path}")
            continue
        init = _find_method(cls, "__init__")
        mlps = _calls_named(init, "MLP") if init is not None else []
        if init is None or not mlps:
            emit(cls.lineno, "shape.contract-missing",
                 f"{cls_name}.__init__ builds no MLP the checker can see")
            continue
        params = [a.arg for a in init.args.args if a.arg != "self"]
        d_name = params[0] if params else "d"
        w_name = params[1] if len(params) > 1 else d_name
        want_in, want_out = spec(d_name, w_name)
        env = _straightline_env(init)
        for call in mlps:
            sizes = _mlp_size_list(call)
            if sizes is None:
                emit(call.lineno, "shape.contract-missing",
                     f"{cls_name} builds an MLP without a literal size "
                     f"list; the IO contract is unchecked")
                continue
            _check_size_list(sizes, path, emit)
            if not sizes.elts:
                continue
            got_in = sym_eval(sizes.elts[0], env)
            got_out = sym_eval(sizes.elts[-1], env)
            if got_in is not None and got_in != want_in:
                emit(call.lineno, rule,
                     f"{cls_name} MLP input width is {got_in}, the "
                     f"contract requires {want_in}",
                     fix=f"first size must be {want_in}")
            if got_out is not None and got_out != want_out:
                emit(call.lineno, rule,
                     f"{cls_name} MLP output width is {got_out}, the "
                     f"contract requires {want_out}",
                     fix=f"last size must be {want_out}")

    suppressions = _suppressions(source)
    return [d for lineno, d in findings
            if not _suppressed(d, lineno, suppressions)]


def _check_size_list(sizes: ast.List, path: str, emit) -> None:
    if len(sizes.elts) < 2 and not any(
            isinstance(e, ast.Starred) for e in sizes.elts):
        emit(sizes.lineno, "shape.mlp-sizes",
             f"MLP size list has {len(sizes.elts)} entries; an input and "
             f"an output width are required")
    for elt in sizes.elts:
        if isinstance(elt, ast.Constant) and isinstance(
                elt.value, (int, float)) and elt.value <= 0:
            emit(elt.lineno, "shape.mlp-sizes",
                 f"MLP width {elt.value!r} is not positive")


def check_construction_source(source: str, path: str = "<string>"
                              ) -> list[Diagnostic]:
    """``shape.critic-metrics`` + actor-width checks at construction
    sites (anywhere ``Critic``/``CriticEnsemble``/``Actor`` is built)."""
    findings: list[tuple[int, Diagnostic]] = []

    def emit(lineno: int, rule: str, message: str, fix: str = "") -> None:
        findings.append((lineno, SHAPE_RULES.diag(
            rule, message, location=f"{path}:{lineno}", fix=fix)))

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(rule="code.syntax", severity=Severity.ERROR,
                           message=f"syntax error: {exc.msg}",
                           location=f"{path}:{exc.lineno or 0}")]

    # Skip the defining module: inside class Critic the names are formal
    # parameters, not task-anchored expressions.
    defined_here = {cls.name for cls in tree.body
                    if isinstance(cls, ast.ClassDef)}
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn in functions:
        env = _straightline_env(fn)
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            ctor = dotted_name(call.func).split(".")[-1]
            if ctor in ("Critic", "CriticEnsemble") \
                    and ctor not in defined_here:
                width = sym_eval(_arg(call, 1, "n_metrics"), env)
                if width is None or not width.anchored_on(".m"):
                    continue  # provenance unknown: pass-through parameter
                anchor = next(v for v, _ in width.terms
                              if v == "m" or v.endswith(".m"))
                want = Sym.var(anchor) + Sym(const=1.0)
                if width != want:
                    emit(call.lineno, "shape.critic-metrics",
                         f"{ctor} built with metric width {width}; the "
                         f"critic must predict all m constraint metrics "
                         f"plus the FoM column ({want})",
                         fix=f"pass {want}")
            if ctor == "Actor" and ctor not in defined_here:
                d = sym_eval(_arg(call, 0, "d"), env)
                if d is None or not d.anchored_on(".d"):
                    continue
                anchor = next(v for v, _ in d.terms
                              if v == "d" or v.endswith(".d"))
                want = Sym.var(anchor)
                if d != want:
                    emit(call.lineno, "shape.actor-io",
                         f"Actor built over dimension {d}; actors are "
                         f"square maps over the task's design space "
                         f"({want})",
                         fix=f"pass {want}")

    suppressions = _suppressions(source)
    return [d for lineno, d in findings
            if not _suppressed(d, lineno, suppressions)]


# -- config-default contracts -------------------------------------------------

def _dataclass_defaults(tree: ast.Module, cls_name: str
                        ) -> dict[str, float]:
    """Constant-folded field defaults of one (dataclass) class."""
    cls = _find_class(tree, cls_name)
    out: dict[str, float] = {}
    if cls is None:
        return out
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name) and node.value is not None:
            value = sym_eval(node.value, {})
            if value is not None and value.is_const:
                out[node.target.id] = value.const
    return out


def _dict_literal_entries(tree: ast.Module, name: str) -> dict[str, float]:
    """Constant numeric entries of a module-level ``NAME = {...}``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == name \
                and isinstance(node.value, ast.Dict):
            out: dict[str, float] = {}
            for k, v in zip(node.value.keys, node.value.values):
                if isinstance(k, ast.Constant) and isinstance(
                        k.value, str):
                    value = sym_eval(v, {})
                    if value is not None and value.is_const:
                        out[k.value] = value.const
            return out
    return {}


def check_config_sources(config_source: str,
                         experiments_source: str | None = None,
                         config_path: str = "core/config.py",
                         experiments_path: str = "experiments/config.py"
                         ) -> list[Diagnostic]:
    """``shape.elite-bound`` / ``shape.ns-box`` over config defaults."""
    findings: list[Diagnostic] = []

    def emit(path: str, rule: str, message: str, fix: str = "",
             severity: Severity | None = None) -> None:
        findings.append(SHAPE_RULES.diag(
            rule, message, location=path, fix=fix, severity=severity))

    try:
        tree = ast.parse(config_source)
    except SyntaxError as exc:
        return [Diagnostic(rule="code.syntax", severity=Severity.ERROR,
                           message=f"syntax error: {exc.msg}",
                           location=f"{config_path}:{exc.lineno or 0}")]
    defaults = _dataclass_defaults(tree, "MAOptConfig")
    if not defaults:
        emit(config_path, "shape.contract-missing",
             "MAOptConfig defaults not found; config contracts unchecked")
        return findings

    # -- near-sampling box ----------------------------------------------------
    ns_samples = defaults.get("ns_samples")
    ns_radius = defaults.get("ns_radius")
    ns_phase = defaults.get("ns_phase")
    t_ns = defaults.get("t_ns")
    if ns_samples is not None and ns_samples < 1:
        emit(config_path, "shape.ns-box",
             f"ns_samples default {ns_samples:g} < 1: the near-sampling "
             f"set X^NS is empty")
    if ns_radius is not None and not 0 < ns_radius <= 0.5:
        emit(config_path, "shape.ns-box",
             f"ns_radius default {ns_radius:g} is outside (0, 0.5]: the "
             f"per-dimension box leaves the normalized unit cube")
    if ns_phase is not None and t_ns is not None \
            and not 0 <= ns_phase < t_ns:
        emit(config_path, "shape.ns-box",
             f"ns_phase default {ns_phase:g} is outside [0, t_ns={t_ns:g})"
             f": Alg. 2 never fires")

    # -- elite bound ----------------------------------------------------------
    n_elite = defaults.get("n_elite")
    populations: list[tuple[str, float, str]] = []
    if n_elite is not None:
        populations.append(("MAOptConfig.n_elite", n_elite, config_path))
    if experiments_source is not None:
        try:
            exp_tree = ast.parse(experiments_source)
        except SyntaxError as exc:
            return findings + [Diagnostic(
                rule="code.syntax", severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                location=f"{experiments_path}:{exc.lineno or 0}")]
        tuned = _dict_literal_entries(exp_tree, "TUNED_MAOPT")
        if "n_elite" in tuned:
            populations.append(("TUNED_MAOPT['n_elite']", tuned["n_elite"],
                                experiments_path))
        bench = _dataclass_defaults(exp_tree, "BenchConfig")
        n_init = bench.get("n_init")
        if n_init is not None:
            for label, value, path in populations:
                if value > n_init:
                    emit(path, "shape.elite-bound",
                         f"{label} = {value:g} exceeds the default "
                         f"initial population BenchConfig.n_init = "
                         f"{n_init:g}; Eq. 2 ranks the elite set out of "
                         f"X^tot, which starts at n_init designs",
                         fix="shrink the elite set or raise n_init")
    return findings


# -- orchestration ------------------------------------------------------------

#: Files the full-repo check reads, relative to the ``repro`` source root.
CONTRACT_FILES = {
    "networks": "core/networks.py",
    "config": "core/config.py",
    "experiments": "experiments/config.py",
}
#: Construction-site sweep: modules that build critics/actors.
CONSTRUCTION_GLOBS = ("core/*.py", "baselines/*.py")


def check_shapes(src_root: str | pathlib.Path | None = None
                 ) -> list[Diagnostic]:
    """Run every ``shape.*`` contract over a ``repro`` source tree.

    ``src_root`` is the directory containing ``core/networks.py`` (the
    installed package directory by default).  Trees missing a contract
    file get a ``shape.contract-missing`` warning rather than a crash,
    so the checker degrades loudly on refactors.
    """
    if src_root is None:
        import repro

        src_root = pathlib.Path(repro.__file__).parent
    root = pathlib.Path(src_root)
    diags: list[Diagnostic] = []

    def read(rel: str) -> str | None:
        p = root / rel
        return p.read_text(encoding="utf-8") if p.exists() else None

    networks = read(CONTRACT_FILES["networks"])
    if networks is None:
        diags.append(SHAPE_RULES.diag(
            "shape.contract-missing",
            f"{CONTRACT_FILES['networks']} not found under {root}",
            location=str(root)))
    else:
        diags.extend(check_networks_source(
            networks, path=str(root / CONTRACT_FILES["networks"])))

    config = read(CONTRACT_FILES["config"])
    experiments = read(CONTRACT_FILES["experiments"])
    if config is None:
        diags.append(SHAPE_RULES.diag(
            "shape.contract-missing",
            f"{CONTRACT_FILES['config']} not found under {root}",
            location=str(root)))
    else:
        diags.extend(check_config_sources(
            config, experiments,
            config_path=str(root / CONTRACT_FILES["config"]),
            experiments_path=str(root / CONTRACT_FILES["experiments"])))

    for pattern in CONSTRUCTION_GLOBS:
        for f in sorted(root.glob(pattern)):
            diags.extend(check_construction_source(
                f.read_text(encoding="utf-8"), path=str(f)))
    return diags


__all__ = [
    "CONTRACT_FILES",
    "SHAPE_RULES",
    "Sym",
    "check_config_sources",
    "check_construction_source",
    "check_networks_source",
    "check_shapes",
    "sym_eval",
]
