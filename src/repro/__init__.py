"""MA-Opt reproduction: multi-actor RL-inspired analog circuit sizing.

This package reproduces "MA-Opt: Reinforcement Learning-based Analog Circuit
Optimization using Multi-Actors" (DATE 2023) end to end:

* :mod:`repro.nn` — the numpy MLP and Adam optimizer behind the actors,
  the critic and PPO, standing in for PyTorch.
* :mod:`repro.spice` — a Modified-Nodal-Analysis circuit simulator (DC, AC,
  transient, noise) standing in for HSpice.
* :mod:`repro.circuits` — the paper's three benchmark circuits (two-stage
  OTA, three-stage TIA, LDO regulator) as parametric sizing tasks.
* :mod:`repro.core` — the MA-Opt optimizer itself (multi-actor actor-critic
  training, shared elite solution set, near-sampling) plus the DNN-Opt,
  MA-Opt1 and MA-Opt2 ablation variants.
* :mod:`repro.baselines` — Bayesian optimization, random search and PPO
  baselines.
* :mod:`repro.experiments` — runners that regenerate every table and figure
  of the paper's evaluation section.
"""

__version__ = "1.0.0"

# Public names are resolved lazily (PEP 562) so that subpackages — notably
# the heavy optimizer stack — are only imported when actually used.
_PUBLIC = {
    "MAOptConfig": ("repro.core.config", "MAOptConfig"),
    "VariantPreset": ("repro.core.config", "VariantPreset"),
    "FigureOfMerit": ("repro.core.fom", "FigureOfMerit"),
    "MAOptimizer": ("repro.core.ma_opt", "MAOptimizer"),
    "OptimizationResult": ("repro.core.result", "OptimizationResult"),
    "TwoStageOTA": ("repro.circuits", "TwoStageOTA"),
    "ThreeStageTIA": ("repro.circuits", "ThreeStageTIA"),
    "LDORegulator": ("repro.circuits", "LDORegulator"),
}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name: str):
    try:
        module_name, attr = _PUBLIC[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
