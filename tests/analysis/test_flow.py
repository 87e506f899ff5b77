"""Tests for the shared AST dataflow core: scope trees, name
resolution (including Python's class-scope skip) and mutation/read
tracking."""

import textwrap

from repro.analysis.flow import build_module, dotted_name


def mod(snippet, path="m.py"):
    return build_module(textwrap.dedent(snippet), path=path)


def fn(m, name):
    for scope in m.scopes:
        if scope.name == name and not scope.is_class:
            return scope
    raise AssertionError(f"no function scope {name!r}")


class TestScopeTree:
    def test_module_function_nesting(self):
        m = mod("""
            x = 1
            def outer():
                def inner():
                    return x
                return inner
        """)
        outer = fn(m, "outer")
        inner = fn(m, "inner")
        assert inner.parent is outer
        assert outer.parent is m.module_scope
        assert m.module_scope.is_module

    def test_params_are_bindings(self):
        m = mod("def f(a, b=1, *args, **kw):\n    return a\n")
        f = fn(m, "f")
        assert {"a", "b", "args", "kw"} <= set(f.params)
        assert f.binds("a")

    def test_param_annotations_recorded(self):
        m = mod("""
            import numpy as np
            def f(rng: np.random.Generator):
                return rng
        """)
        assert fn(m, "f").param_annotations["rng"].endswith("Generator")


class TestResolution:
    def test_local_binding_resolves_to_self(self):
        m = mod("def f():\n    y = 2\n    return y\n")
        f = fn(m, "f")
        assert f.resolve("y") is f

    def test_free_variable_resolves_to_enclosing(self):
        m = mod("""
            def outer():
                z = []
                def inner():
                    return z
                return inner
        """)
        assert fn(m, "inner").resolve("z") is fn(m, "outer")

    def test_module_global_resolves_to_module(self):
        m = mod("g = 1\ndef f():\n    return g\n")
        assert fn(m, "f").resolve("g") is m.module_scope

    def test_class_scope_is_skipped(self):
        # Python closure resolution skips class bodies: a method reading
        # `attr` does NOT see the class attribute of the same name.
        m = mod("""
            attr = 'module'
            class C:
                attr = 'class'
                def method(self):
                    return attr
        """)
        assert fn(m, "method").resolve("attr") is m.module_scope

    def test_global_statement_forces_module(self):
        m = mod("""
            g = 1
            def outer():
                g = 2
                def inner():
                    global g
                    g = 3
                return inner
        """)
        assert fn(m, "inner").resolve("g") is m.module_scope

    def test_unknown_name_resolves_to_none(self):
        m = mod("def f():\n    return undefined_thing\n")
        assert fn(m, "f").resolve("undefined_thing") is None


class TestMutationsAndCalls:
    def test_method_mutation_recorded(self):
        m = mod("def f():\n    acc = []\n    acc.append(1)\n")
        f = fn(m, "f")
        assert "acc" in f.mutated_names()

    def test_augassign_and_subscript_mutations(self):
        m = mod("""
            def f(d):
                d['k'] = 1
                n = 0
                n += 1
        """)
        names = fn(m, "f").mutated_names()
        assert "d" in names and "n" in names

    def test_call_sites_have_dotted_names(self):
        m = mod("import numpy as np\ndef f():\n    np.random.default_rng()\n")
        callees = {c.callee for c in fn(m, "f").calls}
        assert "np.random.default_rng" in callees

    def test_dotted_name_of_nested_attribute(self):
        import ast

        node = ast.parse("a.b.c", mode="eval").body
        assert dotted_name(node) == "a.b.c"
