"""Configuration for the MA-Opt optimizer family.

:class:`VariantPreset` encodes the four RL-inspired frameworks compared in
the paper's evaluation (see DESIGN.md for the naming note on MA-Opt2):

=========  ======  ==========  =============
variant    actors  elite set   near-sampling
=========  ======  ==========  =============
DNN-Opt    1       single      no
MA-Opt1    3       individual  no
MA-Opt2    3       shared      no
MA-Opt     3       shared      yes
=========  ======  ==========  =============
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, replace


class VariantPreset(enum.Enum):
    """The paper's algorithm variants."""

    DNN_OPT = "dnn-opt"
    MA_OPT_1 = "ma-opt1"
    MA_OPT_2 = "ma-opt2"
    MA_OPT = "ma-opt"


@dataclass
class MAOptConfig:
    """Hyper-parameters for :class:`repro.core.ma_opt.MAOptimizer`.

    Paper-stated values: ``n_actors=3``, ``t_ns=5``, ``ns_samples=2000``,
    2x100 hidden layers.  Values the paper leaves unstated (elite-set size,
    learning rates, per-round step counts, near-sampling radius) use
    DNN-Opt-style defaults and are exercised by the ablation benches.
    """

    # architecture (Section II-B)
    n_actors: int = 3
    shared_elite: bool = True
    hidden: tuple[int, ...] = (100, 100)
    # Maximum |dx| per dimension in normalized units.  The paper does not
    # state its action bound; 0.2 is calibrated on the circuit tasks (large
    # bounds make every proposal a teleport and stall convergence).
    action_scale: float = 0.2

    # elite solution set
    n_elite: int = 16

    # extensions beyond the paper's defaults
    n_critics: int = 1          # >1 enables the critic ensemble the paper
                                # considered and rejected (memory cost)

    # near-sampling (Section II-C)
    near_sampling: bool = True
    t_ns: int = 5
    ns_phase: int = 0          # the "k" in (t mod T_NS) == k
    ns_samples: int = 2000
    ns_radius: float = 0.04    # per-dimension, in normalized units
    ns_margin: float = 0.05    # constraint safety margin during NS ranking

    # training (Eqs. 4-5)
    critic_lr: float = 1e-3
    actor_lr: float = 2e-3
    critic_steps: int = 80
    actor_steps: int = 40
    batch_size: int = 64
    lambda_viol: float = 10.0
    identity_fraction: float = 0.1
    # Minimum distance (normalized space) between same-round proposals.
    proposal_min_dist: float = 0.05

    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_actors < 1:
            raise ValueError("need at least one actor")
        if self.n_elite < 1:
            raise ValueError("elite set size must be >= 1")
        if self.t_ns < 1:
            raise ValueError("t_ns must be >= 1")
        if not 0 <= self.ns_phase < self.t_ns:
            raise ValueError("ns_phase must be in [0, t_ns)")
        if self.ns_samples < 1 or self.ns_radius <= 0:
            raise ValueError("bad near-sampling parameters")
        if min(self.critic_steps, self.actor_steps, self.batch_size) < 1:
            raise ValueError("training step counts and batch size must be >= 1")
        if self.n_critics < 1:
            raise ValueError("need at least one critic")

    def to_dict(self) -> dict:
        """JSON-safe dict (checkpoint headers); inverse of :meth:`from_dict`."""
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "MAOptConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        d = dict(data)
        d["hidden"] = tuple(d.get("hidden", (100, 100)))
        return cls(**d)

    @classmethod
    def from_preset(cls, preset: VariantPreset | str, **overrides) -> "MAOptConfig":
        """Build the configuration for one of the paper's variants."""
        if isinstance(preset, str):
            preset = VariantPreset(preset)
        base = cls(seed=overrides.pop("seed", None))
        if preset is VariantPreset.DNN_OPT:
            cfg = replace(base, n_actors=1, shared_elite=True, near_sampling=False)
        elif preset is VariantPreset.MA_OPT_1:
            cfg = replace(base, n_actors=3, shared_elite=False, near_sampling=False)
        elif preset is VariantPreset.MA_OPT_2:
            cfg = replace(base, n_actors=3, shared_elite=True, near_sampling=False)
        else:
            cfg = replace(base, n_actors=3, shared_elite=True, near_sampling=True)
        return replace(cfg, **overrides) if overrides else cfg
