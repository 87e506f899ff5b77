"""Tests for the repo-invariant AST linter: each rule fires on a minimal
fixture and is silenced by a `# repro: ignore[...]` suppression."""

import textwrap

from repro.analysis.codelint import CODE_RULES, lint_paths, lint_source
from repro.analysis.diagnostics import Severity


def lint(snippet, **kw):
    return lint_source(textwrap.dedent(snippet), **kw)


def rules(diags):
    return {d.rule for d in diags}


class TestGlobalRng:
    def test_sampler_fires(self):
        diags = lint("import numpy as np\nx = np.random.uniform(0, 1)\n")
        assert rules(diags) == {"code.global-rng"}
        assert diags[0].severity == Severity.ERROR

    def test_full_module_spelling_fires(self):
        assert rules(lint("import numpy\nx = numpy.random.normal()\n")) \
            == {"code.global-rng"}

    def test_default_rng_allowed(self):
        assert lint("import numpy as np\nrng = np.random.default_rng(0)\n")\
            == []

    def test_generator_method_allowed(self):
        assert lint("def f(rng):\n    return rng.uniform(0, 1)\n") == []


class TestPickle:
    def test_import_fires(self):
        assert rules(lint("import pickle\n")) == {"code.pickle"}

    def test_from_import_fires(self):
        assert rules(lint("from pickle import loads\n")) == {"code.pickle"}

    def test_dill_fires(self):
        assert rules(lint("import dill\n")) == {"code.pickle"}

    def test_np_load_allow_pickle_fires(self):
        diags = lint("import numpy as np\nd = np.load('f.npz', "
                     "allow_pickle=True)\n")
        assert rules(diags) == {"code.pickle"}

    def test_np_load_without_flag_allowed(self):
        assert lint("import numpy as np\nd = np.load('f.npz')\n") == []
        assert lint("import numpy as np\nd = np.load('f.npz', "
                    "allow_pickle=False)\n") == []


class TestWallclock:
    SNIPPET = "import time\nt = time.time()\n"

    def test_fires_in_core(self):
        assert rules(lint(self.SNIPPET, in_core=True)) \
            == {"code.wallclock"}

    def test_silent_outside_core(self):
        assert lint(self.SNIPPET, in_core=False) == []

    def test_path_based_core_detection(self):
        diags = lint_source("import time\nt = time.time()\n",
                            path="src/repro/core/foo.py")
        assert rules(diags) == {"code.wallclock"}

    def test_datetime_now_fires(self):
        diags = lint("from datetime import datetime\n"
                     "t = datetime.now()\n", in_core=True)
        assert rules(diags) == {"code.wallclock"}

    def test_perf_counter_allowed(self):
        assert lint("import time\nt = time.perf_counter()\n",
                    in_core=True) == []


class TestMutableDefault:
    def test_literal_fires(self):
        assert rules(lint("def f(x=[]):\n    return x\n")) \
            == {"code.mutable-default"}

    def test_constructor_call_fires(self):
        assert rules(lint("def f(x=dict()):\n    return x\n")) \
            == {"code.mutable-default"}

    def test_kwonly_default_fires(self):
        assert rules(lint("def f(*, x={}):\n    return x\n")) \
            == {"code.mutable-default"}

    def test_none_default_allowed(self):
        assert lint("def f(x=None, y=(), z=0):\n    return x\n") == []


class TestBareExcept:
    def test_fires(self):
        snippet = """
        try:
            pass
        except:
            pass
        """
        assert rules(lint(snippet)) == {"code.bare-except"}

    def test_typed_handler_allowed(self):
        snippet = """
        try:
            pass
        except Exception:
            pass
        """
        assert lint(snippet) == []


class TestSuppression:
    def test_rule_scoped_suppression(self):
        assert lint("import pickle  # repro: ignore[code.pickle]\n") == []

    def test_prefix_suppression(self):
        assert lint("import pickle  # repro: ignore[code]\n") == []

    def test_blanket_suppression(self):
        assert lint("import pickle  # repro: ignore\n") == []

    def test_wrong_rule_does_not_suppress(self):
        diags = lint("import pickle  # repro: ignore[code.global-rng]\n")
        assert rules(diags) == {"code.pickle"}

    def test_other_line_does_not_suppress(self):
        diags = lint("# repro: ignore[code.pickle]\nimport pickle\n")
        assert rules(diags) == {"code.pickle"}


class TestSyntaxAndPaths:
    def test_syntax_error_is_one_finding(self):
        diags = lint("def broken(:\n")
        assert rules(diags) == {"code.syntax"}
        assert diags[0].severity == Severity.ERROR

    def test_lint_paths_recurses(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n", encoding="utf-8")
        (pkg / "bad.py").write_text("import pickle\n", encoding="utf-8")
        diags = lint_paths([tmp_path])
        assert rules(diags) == {"code.pickle"}
        assert "bad.py" in diags[0].location

    def test_repo_source_tree_is_clean(self):
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        assert lint_paths([src]) == []


class TestCatalog:
    def test_every_rule_has_description(self):
        for rule in CODE_RULES:
            assert rule.id.startswith("code.")
            assert rule.description
