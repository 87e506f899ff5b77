"""Tests for the flow-sensitive RNG provenance pass (flow.rng.*)."""

import textwrap

from repro.analysis.rngflow import check_source
from repro.analysis.diagnostics import Severity


def check(snippet, path="m.py"):
    return check_source(textwrap.dedent(snippet), path=path)


def rules(diags):
    return {d.rule for d in diags}


class TestNoParam:
    def test_module_global_generator_fires(self):
        diags = check("""
            import numpy as np
            rng = np.random.default_rng(0)
            def sample(n):
                return rng.uniform(size=n)
        """)
        assert "flow.rng.no-param" in rules(diags)
        assert any(d.severity == Severity.ERROR for d in diags)

    def test_uppercase_module_constant_fires(self):
        diags = check("""
            import numpy as np
            _GLOBAL_RNG = np.random.default_rng(0)
            def sample(n):
                return _GLOBAL_RNG.uniform(size=n)
        """)
        assert "flow.rng.no-param" in rules(diags)

    def test_threaded_parameter_clean(self):
        assert check("""
            def sample(rng, n):
                return rng.uniform(size=n)
        """) == []

    def test_annotated_parameter_clean(self):
        assert check("""
            import numpy as np
            def sample(gen_rng: np.random.Generator, n):
                return gen_rng.uniform(size=n)
        """) == []

    def test_self_state_clean(self):
        assert check("""
            class Layer:
                def forward(self, x):
                    return self.rng.normal(size=x.shape)
        """) == []

    def test_local_construction_clean(self):
        assert check("""
            import numpy as np
            def sample(seed, n):
                rng = np.random.default_rng(seed)
                return rng.uniform(size=n)
        """) == []

    def test_non_rng_name_not_flagged(self):
        # `frame.permutation(...)` is not provably a Generator; the pass
        # stays silent rather than guessing.
        assert check("""
            frame = object()
            def f():
                return frame.permutation()
        """) == []


class TestUnseeded:
    def test_unseeded_in_function_warns(self):
        diags = check("""
            import numpy as np
            def setup():
                rng = np.random.default_rng()
                return rng
        """)
        assert rules(diags) == {"flow.rng.unseeded"}
        assert diags[0].severity == Severity.WARNING

    def test_seeded_clean(self):
        assert check("""
            import numpy as np
            def setup(seed):
                return np.random.default_rng(seed)
        """) == []

    def test_main_entry_point_allowed(self):
        assert check("""
            import numpy as np
            def main():
                rng = np.random.default_rng()
                return rng
        """) == []

    def test_cli_command_allowed(self):
        assert check("""
            import numpy as np
            def cmd_demo(args):
                return np.random.default_rng()
        """) == []

    def test_examples_module_scope_allowed(self):
        assert check(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="examples/quickstart.py") == []

    def test_suppression_comment(self):
        assert check("""
            import numpy as np
            def setup():
                return np.random.default_rng()  # repro: ignore[flow.rng.unseeded]
        """) == []


class TestSharedClosure:
    def test_rng_captured_into_pool_closure_fires(self):
        diags = check("""
            def run(rng, pool, designs):
                def worker(u):
                    return rng.normal() + u
                return pool.map(worker, designs)
        """)
        assert "flow.rng.shared-closure" in rules(diags)

    def test_spawned_generators_clean(self):
        assert check("""
            def run(rng, pool, designs):
                streams = rng.spawn(len(designs))
                def worker(pair):
                    child_rng, u = pair
                    return child_rng.normal() + u
                return pool.map(worker, list(zip(streams, designs)))
        """) == []

    def test_not_submitted_closure_is_no_param_free(self):
        # A closure over a parameter rng that is never submitted to a
        # pool is ordinary (and correct) generator threading.
        assert check("""
            def run(rng):
                def helper():
                    return rng.uniform()
                return helper()
        """) == []


class TestRepoSources:
    def test_core_tree_has_no_findings(self):
        # src/repro is finding-free: the historical unseeded-fallback
        # warning in the network layers went with them; MLP draws its
        # weights from default_rng(seed).  Any new finding, warning
        # or error, fails here and in the CI lint gate.
        import pathlib

        import repro
        from repro.analysis.rngflow import check_paths

        root = pathlib.Path(repro.__file__).parent
        assert check_paths([root]) == []

    def test_syntax_error_is_a_diagnostic(self):
        diags = check_source("def broken(:\n", path="x.py")
        assert rules(diags) == {"code.syntax"}
