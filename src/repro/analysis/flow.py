"""Shared AST dataflow core for the flow-sensitive analyzers.

The syntactic codelint (:mod:`repro.analysis.codelint`) inspects one node
at a time; the flow pass (:mod:`repro.analysis.rngflow`) needs to answer
*where does this name come from*.  This module builds the minimal model
it uses:

* a :class:`Scope` per function (plus one synthetic module scope) with
  its parameters, the names it binds, ``global``/``nonlocal``
  declarations and call sites (in source order);
* lexical name resolution (:meth:`Scope.resolve`) walking local →
  enclosing functions → module, honouring ``global``/``nonlocal``.

Inside one scope the model is flow-insensitive: a name is bound or not,
and branches are not split into basic blocks — the pass built on top is
a heuristic linter, not a verifier, and favours zero false positives
over completeness.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

def dotted_name(node: ast.expr) -> str:
    """Best-effort dotted name of a Name/Attribute chain (else '')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@dataclass
class CallSite:
    """One call expression inside a scope."""

    callee: str              # dotted name ('' when the callee is dynamic)
    node: ast.Call
    lineno: int


class Scope:
    """One function (or the module) with its bound names and call sites."""

    def __init__(self, name: str, qualname: str, node: ast.AST | None,
                 parent: "Scope | None", is_module: bool = False) -> None:
        self.name = name
        self.qualname = qualname
        self.node = node
        self.parent = parent
        self.is_module = is_module
        self.is_class = False
        self.children: list[Scope] = []
        self.params: list[str] = []
        self.param_annotations: dict[str, str] = {}
        self.bound: set[str] = set()
        self.global_decls: set[str] = set()
        self.nonlocal_decls: set[str] = set()
        self.calls: list[CallSite] = []
        self.lineno = getattr(node, "lineno", 0)

    # -- structure -----------------------------------------------------------
    def add_child(self, child: "Scope") -> None:
        self.children.append(child)

    # -- bindings ------------------------------------------------------------
    def bind(self, name: str) -> None:
        self.bound.add(name)

    def binds(self, name: str) -> bool:
        return name in self.bound

    # -- resolution ----------------------------------------------------------
    def resolve(self, name: str) -> "Scope | None":
        """The scope that lexically owns ``name``, or None (builtin or
        truly unknown).  ``global``/``nonlocal`` declarations redirect."""
        if name in self.global_decls:
            scope: Scope | None = self
            while scope is not None and not scope.is_module:
                scope = scope.parent
            return scope
        if name in self.nonlocal_decls:
            scope = self.parent
            while scope is not None and not scope.is_module:
                if scope.binds(name):
                    return scope
                scope = scope.parent
            return None
        # Python skips class bodies when resolving free variables inside
        # methods; class scopes therefore always delegate upward.
        if self.binds(name) and not self.is_class:
            return self
        if self.parent is not None:
            return self.parent.resolve(name)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scope({self.qualname!r})"


class _ScopeBuilder(ast.NodeVisitor):
    """Builds the scope tree for one module in a single traversal."""

    def __init__(self, module: "ModuleModel") -> None:
        self.module = module
        self.current = module.module_scope

    # -- helpers -------------------------------------------------------------
    def _enter(self, scope: Scope, body) -> None:
        parent, self.current = self.current, scope
        parent.add_child(scope)
        self.module.scopes.append(scope)
        for stmt in body:
            self.visit(stmt)
        self.current = parent

    def _bind_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.current.bind(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value)

    def _function_scope(self, node, qual_suffix: str = "") -> Scope:
        qual = (self.current.qualname + "." if not self.current.is_module
                else "") + node.name + qual_suffix
        scope = Scope(node.name, qual, node, self.current)
        args = node.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            scope.params.append(a.arg)
            scope.bind(a.arg)
            if a.annotation is not None:
                scope.param_annotations[a.arg] = dotted_name(a.annotation)
        for a in (args.vararg, args.kwarg):
            if a is not None:
                scope.params.append(a.arg)
                scope.bind(a.arg)
        return scope

    # -- scope-opening nodes -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.current.bind(node.name)
        for d in node.decorator_list:
            self.visit(d)
        self._enter(self._function_scope(node), node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.current.bind(node.name)
        for d in node.decorator_list:
            self.visit(d)
        self._enter(self._function_scope(node), node.body)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        qual = (self.current.qualname + "." if not self.current.is_module
                else "") + f"<lambda:{node.lineno}>"
        scope = Scope("<lambda>", qual, node, self.current)
        for a in (list(node.args.posonlyargs) + list(node.args.args)
                  + list(node.args.kwonlyargs)):
            scope.params.append(a.arg)
            scope.bind(a.arg)
        self._enter(scope, [ast.Expr(value=node.body)])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies are not closure scopes; methods nest in the module
        # (or enclosing function) for name resolution, which matches how
        # Python resolves free variables inside methods.
        self.current.bind(node.name)
        qual = (self.current.qualname + "." if not self.current.is_module
                else "") + node.name
        scope = Scope(node.name, qual, node, self.current)
        scope.is_class = True
        self._enter(scope, node.body)

    # -- bindings ------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._bind_target(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._bind_target(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._bind_target(node.target)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._bind_target(node.target)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit_For(node)  # type: ignore[arg-type]

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self.visit_With(node)  # type: ignore[arg-type]

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.current.bind(name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if name != "*":
                self.current.bind(name)

    def visit_Global(self, node: ast.Global) -> None:
        self.current.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.current.nonlocal_decls.update(node.names)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # Comprehension targets bind into the enclosing function scope in
        # this model (close enough for linting; Python scopes them apart).
        self._bind_target(node.target)
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)

    # -- uses ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        self.current.calls.append(CallSite(
            callee=callee, node=node, lineno=node.lineno))
        self.generic_visit(node)


class ModuleModel:
    """Scope tree + suppressions for one parsed module."""

    def __init__(self, source: str, path: str = "<string>") -> None:
        self.source = source
        self.path = path
        self.tree = ast.parse(source)
        name = pathlib.PurePath(path).stem if path != "<string>" else path
        self.module_scope = Scope(name, name, self.tree, None,
                                  is_module=True)
        self.scopes: list[Scope] = [self.module_scope]
        builder = _ScopeBuilder(self)
        for stmt in self.tree.body:
            builder.visit(stmt)


def build_module(source: str, path: str = "<string>") -> ModuleModel:
    """Parse + scope-model one module.  Raises ``SyntaxError`` on bad
    source (callers surface it as a ``code.syntax`` diagnostic)."""
    return ModuleModel(source, path=path)


def iter_python_files(paths) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[pathlib.Path] = []
    for path in paths:
        p = pathlib.Path(path)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out
