"""Start-up import graph: BO's scipy stack loads only when BO runs, and the
code linters load only when ``lint`` runs.

Each check runs in a fresh interpreter, because the test process itself has
long since imported everything.  The checks are structural (which modules
are in ``sys.modules``), not timings, so a loaded host cannot flake them.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules only BO (and the table statistics) need.
HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize", "repro.baselines")

#: The start-up a ``setup_s`` probe and every CLI verb pay.
STARTUP = """
from repro.experiments import make_initial_set, run_method
from repro.experiments.config import TUNED_MAOPT
from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
TwoStageOTA(fidelity="fast")
ThreeStageTIA(fidelity="fast")
LDORegulator(fidelity="fast")
import repro.cli
"""


def _loaded_after(code: str, modules) -> dict:
    """Run ``code`` in a fresh interpreter; which ``modules`` it loaded."""
    probe = (code + "\nimport json, sys\n"
             f"print(json.dumps({{m: m in sys.modules "
             f"for m in {list(modules)!r}}}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_startup_loads_no_baseline_stack():
    loaded = _loaded_after(STARTUP, HEAVY)
    assert not any(loaded.values()), loaded


def test_bo_run_does_not_load_scipy_stats():
    code = STARTUP + """
import numpy as np
task = ThreeStageTIA(fidelity="fast")
x0, f0 = make_initial_set(task, 6, seed=0)
result = run_method("BO", task, 3, x0, f0, seed=0)
assert len(result.records) == 3, len(result.records)
assert np.isfinite(result.best_fom)
"""
    loaded = _loaded_after(code, ("scipy.stats", "repro.baselines"))
    assert loaded == {"scipy.stats": False, "repro.baselines": True}


def test_random_run_does_not_load_gp_stack():
    # repro.baselines resolves each class on first access, so a Random
    # run loads neither the GP (scipy.optimize) nor BO nor PPO.
    code = STARTUP + """
import numpy as np
task = ThreeStageTIA(fidelity="fast")
x0, f0 = make_initial_set(task, 6, seed=0)
result = run_method("Random", task, 3, x0, f0, seed=0)
assert len(result.records) == 3, len(result.records)
"""
    gp_stack = ("scipy.optimize", "repro.baselines.gp",
                "repro.baselines.bayesopt", "repro.baselines.ppo")
    loaded = _loaded_after(code, ("repro.baselines.random_search",
                                  *gp_stack))
    assert loaded == {"repro.baselines.random_search": True,
                      **{m: False for m in gp_stack}}, loaded


def test_maopt_run_does_not_load_code_linters():
    # The ERC gate imports repro.analysis.erc on every simulation; the
    # package must not drag the AST linters in with it.
    code = STARTUP + """
import numpy as np
task = ThreeStageTIA(fidelity="fast")
x0, f0 = make_initial_set(task, 6, seed=0)
result = run_method("MA-Opt", task, 3, x0, f0, seed=0,
                    maopt_overrides=dict(critic_steps=5, actor_steps=3,
                                         batch_size=4, n_elite=4,
                                         hidden=(8, 8)))
assert len(result.records) == 3, len(result.records)
"""
    linters = ("repro.analysis.flow", "repro.analysis.rngflow",
               "repro.analysis.codelint")
    loaded = _loaded_after(code, ("repro.analysis.erc", *linters))
    assert loaded == {"repro.analysis.erc": True,
                      **{m: False for m in linters}}, loaded
