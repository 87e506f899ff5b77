"""Shared AST dataflow core for the flow-sensitive analyzers.

The syntactic codelint (:mod:`repro.analysis.codelint`) inspects one node
at a time; the flow pass (:mod:`repro.analysis.rngflow`) needs to answer
*where does this name come from*.  This module builds the minimal model
it uses:

* a :class:`Scope` per function (plus one synthetic module scope) with
  its parameters, local bindings (assignment targets with their value
  expressions, in statement order), ``global``/``nonlocal`` declarations,
  call sites, attribute/subscript writes and mutating method calls;
* lexical name resolution (:meth:`Scope.resolve`) walking local →
  enclosing functions → module, honouring ``global``/``nonlocal``.

It is a CFG-lite: statements inside one scope are kept in source order
(enough for straight-line binding resolution), but branches are not
split into basic blocks — the passes built on top are heuristic linters,
not verifiers, and favour zero false positives over completeness.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

#: Method names that mutate their receiver in place (used to decide
#: whether a captured/shared object is written, not just read).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
    "__setitem__", "fill", "emit", "inc", "observe", "set_gauge",
})


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
class Binding:
    """One assignment of a name inside a scope."""

    name: str
    node: ast.AST            # the whole statement (Assign/For/With/...)
    value: ast.expr | None   # RHS expression when there is a single one
    lineno: int
    kind: str = "local"      # local | param | def | import | global-decl


@dataclass
class CallSite:
    """One call expression inside a scope."""

    callee: str              # dotted name ('' when the callee is dynamic)
    node: ast.Call
    lineno: int


@dataclass
class Mutation:
    """An in-place write: ``x[k] = v``, ``x.attr = v``, ``x += v``,
    ``x.append(v)`` — recorded against the *base* name ``x``."""

    base: str                # base variable name being mutated
    via: str                 # 'subscript' | 'attribute' | 'augassign' | method
    lineno: int


class Scope:
    """One function (or the module) with its bindings and uses."""

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
        self.bindings: dict[str, list[Binding]] = {}
        self.global_decls: set[str] = set()
        self.nonlocal_decls: set[str] = set()
        self.calls: list[CallSite] = []
        self.mutations: list[Mutation] = []
        self.reads: set[str] = set()
        self.decorators: list[str] = []
        self.lineno = getattr(node, "lineno", 0)

    # -- structure -----------------------------------------------------------
    def add_child(self, child: "Scope") -> None:
        self.children.append(child)

    def walk(self):
        """This scope and every nested scope, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- bindings ------------------------------------------------------------
    def bind(self, name: str, node: ast.AST, value: ast.expr | None,
             kind: str = "local") -> None:
        self.bindings.setdefault(name, []).append(Binding(
            name=name, node=node, value=value,
            lineno=getattr(node, "lineno", 0), kind=kind))

    def binds(self, name: str) -> bool:
        return name in self.bindings

    def last_value(self, name: str,
                   before_line: int | None = None) -> ast.expr | None:
        """The most recent RHS bound to ``name`` (optionally before a
        line), or None when unbound / bound without a usable RHS."""
        best: Binding | None = None
        for b in self.bindings.get(name, ()):
            if before_line is not None and b.lineno > before_line:
                continue
            if best is None or b.lineno >= best.lineno:
                best = b
        return best.value if best is not None else None

    # -- resolution ----------------------------------------------------------
    def resolve(self, name: str) -> "Scope | None":
        """The scope that lexically owns ``name``, or None (builtin or
        truly unknown).  ``global``/``nonlocal`` declarations redirect."""
        if name in self.global_decls:
            scope: Scope | None = self
            while scope is not None and not scope.is_module:
                scope = scope.parent
            return scope if scope is not None and scope.binds(name) else scope
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

    def mutated_names(self) -> set[str]:
        """Base names this scope writes in place (incl. rebinding)."""
        out = {m.base for m in self.mutations}
        out.update(n for n, bs in self.bindings.items()
                   if any(b.kind == "local" for b in bs))
        return out

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

    def _bind_target(self, target: ast.expr, stmt: ast.AST,
                     value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            self.current.bind(target.id, stmt, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, stmt, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, stmt, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base = dotted_name(target.value)
            root = base.split(".")[0] if base else ""
            if root:
                via = ("attribute" if isinstance(target, ast.Attribute)
                       else "subscript")
                self.current.mutations.append(Mutation(
                    base=root, via=via,
                    lineno=getattr(stmt, "lineno", 0)))

    def _function_scope(self, node, qual_suffix: str = "") -> Scope:
        qual = (self.current.qualname + "." if not self.current.is_module
                else "") + node.name + qual_suffix
        scope = Scope(node.name, qual, node, self.current)
        args = node.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            scope.params.append(a.arg)
            scope.bind(a.arg, node, None, kind="param")
            if a.annotation is not None:
                scope.param_annotations[a.arg] = dotted_name(a.annotation)
        for a in (args.vararg, args.kwarg):
            if a is not None:
                scope.params.append(a.arg)
                scope.bind(a.arg, node, None, kind="param")
        scope.decorators = [dotted_name(d) if not isinstance(d, ast.Call)
                            else dotted_name(d.func)
                            for d in node.decorator_list]
        return scope

    # -- scope-opening nodes -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.current.bind(node.name, node, None, kind="def")
        for d in node.decorator_list:
            self.visit(d)
        self._enter(self._function_scope(node), node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.current.bind(node.name, node, None, kind="def")
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
            scope.bind(a.arg, node, None, kind="param")
        self._enter(scope, [ast.Expr(value=node.body)])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies are not closure scopes; methods nest in the module
        # (or enclosing function) for name resolution, which matches how
        # Python resolves free variables inside methods.
        self.current.bind(node.name, node, None, kind="def")
        qual = (self.current.qualname + "." if not self.current.is_module
                else "") + node.name
        scope = Scope(node.name, qual, node, self.current)
        scope.is_class = True
        self._enter(scope, node.body)

    # -- bindings ------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        value = node.value if len(node.targets) == 1 else None
        for target in node.targets:
            self._bind_target(target, node, value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._bind_target(node.target, node, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self.current.mutations.append(Mutation(
                base=node.target.id, via="augassign", lineno=node.lineno))
            self.current.bind(node.target.id, node, None)
        else:
            self._bind_target(node.target, node, None)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._bind_target(node.target, node, None)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit_For(node)  # type: ignore[arg-type]

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, node, item.context_expr)
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self.visit_With(node)  # type: ignore[arg-type]

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.current.bind(name, node, None, kind="import")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if name != "*":
                self.current.bind(name, node, None, kind="import")

    def visit_Global(self, node: ast.Global) -> None:
        self.current.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.current.nonlocal_decls.update(node.names)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # Comprehension targets bind into the enclosing function scope in
        # this model (close enough for linting; Python scopes them apart).
        self._bind_target(node.target, node.target, None)
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)

    # -- uses ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        self.current.calls.append(CallSite(
            callee=callee, node=node, lineno=node.lineno))
        if callee and "." in callee:
            base, method = callee.rsplit(".", 1)
            if method in MUTATING_METHODS:
                self.current.mutations.append(Mutation(
                    base=base.split(".")[0], via=method, lineno=node.lineno))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.current.reads.add(node.id)


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

    def functions(self) -> list[Scope]:
        """Every function/lambda scope (classes and module excluded)."""
        return [s for s in self.scopes
                if not s.is_module and not s.is_class]

    def function(self, qualname: str) -> Scope | None:
        for s in self.scopes:
            if s.qualname == qualname:
                return s
        return None


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
