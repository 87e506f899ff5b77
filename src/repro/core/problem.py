"""Problem formulation (Eq. 1): minimize f0(x) s.t. fi(x) <= 0.

A :class:`SizingTask` bundles a design space, a target metric, and a list
of constraint :class:`Spec` s, and knows how to evaluate a normalized
design into the metric vector ``[f0, f1, ..., fm]`` the optimizer consumes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.space import DesignSpace


@dataclass(frozen=True)
class Spec:
    """One performance constraint.

    ``kind`` is ``">"`` (metric must exceed ``bound``) or ``"<"`` (metric
    must stay below).  ``fail_value`` is the metric value substituted when a
    measurement fails outright (simulator non-convergence, no unity-gain
    crossing, ...); it should violate the spec decisively.
    """

    name: str
    kind: str
    bound: float
    weight: float = 1.0
    fail_value: float | None = None
    unit: str = ""
    # Surrogate hint: positive metrics spanning decades (frequencies,
    # settling times, noise) regress far better in log10; the critic's
    # scaler honours this flag.  ``log_floor`` clamps the argument.
    log_scale: bool = False
    log_floor: float = 1e-15

    def __post_init__(self) -> None:
        if self.kind not in (">", "<"):
            raise ValueError(f"spec {self.name}: kind must be '>' or '<'")
        if self.bound == 0:
            raise ValueError(
                f"spec {self.name}: zero bound breaks the relative-violation "
                "normalization of Eq. 2; shift the metric instead"
            )
        if self.weight <= 0:
            raise ValueError(f"spec {self.name}: weight must be positive")

    def violation(self, value: float) -> float:
        """Relative constraint violation: positive iff violated (Eq. 2's
        ``|f_i - c_i| / c_i`` applied one-sidedly)."""
        if self.kind == ">":
            return (self.bound - value) / abs(self.bound)
        return (value - self.bound) / abs(self.bound)

    def satisfied(self, value: float) -> bool:
        return self.violation(value) <= 0.0

    def default_fail_value(self) -> float:
        """A decisively-violating value when ``fail_value`` is unset."""
        if self.fail_value is not None:
            return self.fail_value
        # 10x |bound| beyond the bound, on the violating side.
        margin = 10.0 * abs(self.bound)
        return self.bound - margin if self.kind == ">" else self.bound + margin


@dataclass(frozen=True)
class Target:
    """The target metric f0 to minimize, with its Eq. 2 weight ``w0``."""

    name: str
    weight: float = 1.0
    fail_value: float = 1.0
    unit: str = ""
    log_scale: bool = False
    log_floor: float = 1e-15

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("target weight must be positive")


class SizingTask(ABC):
    """A circuit-sizing (or synthetic) optimization task.

    Subclasses provide :attr:`space`, :attr:`target`, :attr:`specs` and
    implement :meth:`simulate`.  The optimizer-facing entry point is
    :meth:`evaluate`: metrics a simulation could not measure are mapped to
    decisively-bad values so the optimizer sees a finite vector.  A
    simulator error (:class:`~repro.spice.exceptions.SpiceError`) raised
    by :meth:`simulate` propagates; the failure policy in
    :class:`~repro.core.parallel.SimulationExecutor` turns it into a
    counted penalty record.
    """

    name: str = "task"
    space: DesignSpace
    target: Target
    specs: list[Spec]

    @property
    def d(self) -> int:
        return self.space.d

    @property
    def m(self) -> int:
        """Number of constraints (the paper's ``m``)."""
        return len(self.specs)

    @property
    def metric_names(self) -> list[str]:
        return [self.target.name] + [s.name for s in self.specs]

    @property
    def metric_log_mask(self) -> "np.ndarray":
        """Per-metric log-scale flags (target first), for surrogate scalers."""
        return np.array([self.target.log_scale]
                        + [s.log_scale for s in self.specs])

    @property
    def metric_log_floors(self) -> "np.ndarray":
        """Per-metric clamp floors used before taking log10."""
        return np.array([self.target.log_floor]
                        + [s.log_floor for s in self.specs])

    @abstractmethod
    def simulate(self, u: np.ndarray) -> dict[str, float]:
        """Run the full evaluation of one normalized design.

        Returns a metric-name -> value dict; missing/None entries are
        handled by :meth:`evaluate`.  Raises
        :class:`~repro.spice.exceptions.SpiceError` when the simulation
        fails outright.
        """

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Metric vector ``[f0, f1..fm]`` for one normalized design."""
        u = self.space.clip(np.asarray(u, dtype=float).ravel())
        metrics = self.simulate(u)
        out = np.empty(self.m + 1)
        f0 = metrics.get(self.target.name)
        out[0] = self.target.fail_value if f0 is None or not np.isfinite(f0) \
            else float(f0)
        for i, spec in enumerate(self.specs):
            v = metrics.get(spec.name)
            if v is None or not np.isfinite(v):
                v = spec.default_fail_value()
            out[i + 1] = float(v)
        return out

    def evaluate_batch(self, us: np.ndarray) -> np.ndarray:
        """Evaluate several designs; shape (n, m+1)."""
        us = np.atleast_2d(us)
        return np.stack([self.evaluate(u) for u in us])

    def is_feasible(self, metric_vector: np.ndarray) -> bool:
        """All constraints satisfied for the given metric vector."""
        return all(
            spec.satisfied(metric_vector[i + 1]) for i, spec in enumerate(self.specs)
        )

    def describe(self) -> str:
        """Human-readable task summary (target + constraint list)."""
        lines = [f"task: {self.name} (d={self.d}, m={self.m})",
                 f"  minimize {self.target.name} [{self.target.unit}]"]
        for s in self.specs:
            lines.append(f"  s.t. {s.name} {s.kind} {s.bound:g} {s.unit}")
        return "\n".join(lines)
