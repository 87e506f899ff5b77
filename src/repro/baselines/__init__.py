"""Baseline optimizers the paper compares against (plus extras).

* :mod:`repro.baselines.bayesopt` — Gaussian-process Bayesian optimization
  (the paper's BO [21] column).
* :mod:`repro.baselines.random_search` — uniform random sampling (sanity
  floor).
* :mod:`repro.baselines.ppo` — an AutoCkt-style PPO agent, the true-RL
  sizer whose sample inefficiency the paper's introduction argues against
  (the RL-budget ablation).

All baselines share the same entry-point signature as the MA-Opt wrapper in
:mod:`repro.experiments.runner`: they consume a task, a simulation budget
and the shared initial set, and return an
:class:`~repro.core.result.OptimizationResult`.
"""

import importlib

#: Exported name -> the submodule that defines it.  The submodules load on
#: first attribute access (PEP 562), so a Random or PPO run never imports
#: the GP and its scipy stack.
_EXPORTS = {
    "GaussianProcess": "repro.baselines.gp",
    "BayesOpt": "repro.baselines.bayesopt",
    "expected_improvement": "repro.baselines.bayesopt",
    "RandomSearch": "repro.baselines.random_search",
    "PPOSizer": "repro.baselines.ppo",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
