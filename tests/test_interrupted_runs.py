"""Ctrl-C during a recorded run seals its manifest as ``interrupted``.

``KeyboardInterrupt`` is not an ``Exception``, so it needs its own
sealing path; a manifest left at ``status: "running"`` never gives
``ma-opt tail`` a terminal status to stop on.
"""

import pytest

import repro.cli as cli
from repro.core.synthetic import ConstrainedSphere
from repro.experiments import run_comparison
from repro.obs.store import RunStore


class InterruptedSphere(ConstrainedSphere):
    """Sphere task whose ``evaluate`` raises ``KeyboardInterrupt`` after
    ``after`` successful evaluations (mid-run, past the initial set)."""

    def __init__(self, after: int, d: int = 12, seed: int = 3) -> None:
        super().__init__(d=d, seed=seed)
        self.after = after
        self.calls = 0

    def evaluate(self, u):
        self.calls += 1
        if self.calls > self.after:
            raise KeyboardInterrupt
        return super().evaluate(u)


def _only_manifest(root):
    runs = RunStore(root).list_runs()
    assert len(runs) == 1
    return runs[0].manifest


def test_optimize_ctrl_c_seals_interrupted(tmp_path, monkeypatch, capsys):
    task = InterruptedSphere(after=8)
    monkeypatch.setattr(cli, "_make_task", lambda *a, **k: task)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["optimize", "sphere", "--sims", "6", "--init", "6",
                  "--store", str(tmp_path)])
    assert task.calls > 6  # the interrupt landed after initialization
    manifest = _only_manifest(tmp_path)
    assert manifest["status"] == "interrupted"
    assert "error" not in manifest


def test_compare_cell_ctrl_c_seals_interrupted(tmp_path):
    task = InterruptedSphere(after=8)
    with pytest.raises(KeyboardInterrupt):
        run_comparison(task, ["Random"], n_runs=1, n_sims=6, n_init=6,
                       seed=0, verbose=False, run_store=RunStore(tmp_path))
    assert _only_manifest(tmp_path)["status"] == "interrupted"
