"""Baseline optimizers the paper compares against (plus extras).

* :mod:`repro.baselines.bayesopt` — Gaussian-process Bayesian optimization
  (the paper's BO [21] column).
* :mod:`repro.baselines.random_search` — uniform random sampling (sanity
  floor).
* :mod:`repro.baselines.pso` / :mod:`repro.baselines.de` — the population
  metaheuristics the paper's related-work section cites (PSO [7], DE [8]).

All baselines share the same entry-point signature as the MA-Opt wrapper in
:mod:`repro.experiments.runner`: they consume a task, a simulation budget
and the shared initial set, and return an
:class:`~repro.core.result.OptimizationResult`.
"""

from repro.baselines.bayesopt import BayesOpt, expected_improvement
from repro.baselines.de import DifferentialEvolution
from repro.baselines.gp import GaussianProcess
from repro.baselines.ppo import PPOSizer
from repro.baselines.pso import ParticleSwarm
from repro.baselines.random_search import RandomSearch

__all__ = [
    "GaussianProcess",
    "BayesOpt",
    "expected_improvement",
    "RandomSearch",
    "ParticleSwarm",
    "DifferentialEvolution",
    "PPOSizer",
]
