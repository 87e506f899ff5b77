"""Documentation consistency: the README's claims match the repository."""

import argparse
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


class TestReadme:
    def test_readme_example_scripts_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match.group(1)).exists(), \
                match.group(0)

    def test_readme_library_snippet_runs(self):
        """The 'As a library' snippet must execute (tiny budget)."""
        from repro import MAOptConfig, MAOptimizer, TwoStageOTA

        task = TwoStageOTA(fidelity="fast")
        config = MAOptConfig.from_preset(
            "ma-opt", seed=0, critic_steps=5, actor_steps=3, batch_size=8,
            n_elite=4, hidden=(8, 8))
        result = MAOptimizer(task, config).run(n_sims=3, n_init=5)
        best = result.best_feasible() or result.best_record()
        assert best is not None
        params = task.space.denormalize(best.x)
        assert set(params) == set(task.space.names)

    def test_docs_files_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in ("spice.md", "optimizer.md", "circuits.md"):
            assert (ROOT / "docs" / name).exists()
            assert name in readme

    def test_design_and_experiments_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            text = (ROOT / name).read_text()
            assert "MA-Opt" in text

    def test_design_mentions_every_bench_file(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            assert bench.name in design, bench.name


class TestCliDocs:
    def test_cli_commands_in_readme_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        for args in (["describe", "ota"],
                     ["optimize", "ota", "--sims", "60"],
                     ["compare", "ota", "--runs", "2"]):
            parsed = parser.parse_args(args)
            assert parsed.command == args[0]

    def test_documented_verbs_are_registered(self):
        """Every ``python -m repro <verb>`` / ``ma-opt <verb>`` in the
        README and docs names a subcommand the parser still registers."""
        from repro.cli import build_parser

        def verbs(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    return action.choices
            return {}

        commands = verbs(build_parser())
        pattern = re.compile(r"(?:\bpython3? -m repro|\bma-opt)"
                             r"(?: --[\w-]+ \S+)* ([a-z][\w-]*)"
                             r"(?: ([a-z][\w-]*))?")
        docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        seen = set()
        for doc in docs:
            for match in pattern.finditer(doc.read_text()):
                verb, sub_verb = match.groups()
                where = f"{doc.name}: {match.group(0)!r}"
                assert verb in commands, where
                nested = verbs(commands[verb])
                if nested:
                    assert sub_verb in nested, where
                seen.add(verb)
        assert {"optimize", "compare", "lint", "runs"} <= seen
