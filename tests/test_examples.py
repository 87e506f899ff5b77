"""Smoke tests: every example script runs end to end at a tiny scale."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--sims", "6", "--init", "8")
        assert "best design found" in out
        assert ".end" in out  # netlist printed

    def test_ota_sizing(self):
        out = run_example("ota_sizing.py", "--sims", "6", "--init", "8",
                          "--methods", "DNN-Opt")
        assert "Algorithm comparison" in out

    def test_tia_sizing(self):
        out = run_example("tia_sizing.py", "--sims", "4", "--init", "6")
        assert "loop gain" in out

    def test_ldo_sizing(self):
        out = run_example("ldo_sizing.py", "--sims", "4", "--init", "6")
        assert "spec scorecard" in out

    def test_custom_circuit(self):
        out = run_example("custom_circuit.py", "--sims", "5", "--init", "6")
        assert "sizing:" in out

    def test_variants_comparison(self):
        out = run_example("variants_comparison.py", "--circuit", "sphere",
                          "--sims", "6", "--init", "8", "--runs", "1")
        assert "FoM convergence" in out
