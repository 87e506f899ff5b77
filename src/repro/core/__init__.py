"""MA-Opt core: the paper's RL-inspired optimization framework.

Contents map one-to-one onto the paper's Section II:

* :mod:`repro.core.space` / :mod:`repro.core.problem` — problem formulation
  (Eq. 1): design space, target metric, constraints.
* :mod:`repro.core.fom` — the figure-of-merit function g(.) (Eq. 2).
* :mod:`repro.core.population` — total design set, elite solution sets
  (shared and individual, Fig. 2).
* :mod:`repro.core.pseudo` — pseudo-sample generation (Eq. 3).
* :mod:`repro.core.networks` + :mod:`repro.core.training` — critic (Eq. 4)
  and actor (Eqs. 5-6) networks and their training loops.
* :mod:`repro.core.near_sampling` — the near-sampling method (Alg. 2).
* :mod:`repro.core.ma_opt` — Algorithms 1 and 3 tied together, with the
  DNN-Opt / MA-Opt1 / MA-Opt2 / MA-Opt variant presets.
* :mod:`repro.core.driver` — the run loop, records and checkpoint format
  MA-Opt shares with the baselines.
"""

from repro.core.config import MAOptConfig, VariantPreset
from repro.core.driver import Driver
from repro.core.fom import FigureOfMerit
from repro.core.ma_opt import MAOptimizer
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.problem import SizingTask, Spec, Target
from repro.core.result import EvaluationRecord, OptimizationResult
from repro.core.space import DesignSpace, Parameter

__all__ = [
    "DesignSpace",
    "Parameter",
    "SizingTask",
    "Spec",
    "Target",
    "FigureOfMerit",
    "TotalDesignSet",
    "EliteSet",
    "MAOptConfig",
    "VariantPreset",
    "MAOptimizer",
    "Driver",
    "OptimizationResult",
    "EvaluationRecord",
]
