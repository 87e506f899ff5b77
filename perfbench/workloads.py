"""Workloads of the benchmark and the checks every pass must pass.

A pass is one paper-protocol run: simulate an initial set, then run one
method on it through ``repro.experiments.run_method`` -- the calls
``ma-opt optimize`` and the paper-table runs make.  Circuits run at fast
fidelity with the tuned MA-Opt settings and the serial executor.

Inputs.  Each workload has fixed base designs: the initial set
``make_initial_set`` samples at ``BASE_SEED``.  The benchmark seed and the
pass index perturb every normalized coordinate of them by a factor
``1 + N(0, JITTER)``; the optimizer seed is fixed.  Run time depends
chaotically on the exact designs -- BO's hyper-parameter search took 3x
longer on one random TIA initial set than on another -- so wholly new
designs per seed would make every run a different workload.  The
perturbation keeps each workload's character while no two seeds simulate
the same numbers; the optimizers' paths still diverge from it, which is
why a run's ``run_s`` is the median of several short passes.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
import zlib

import numpy as np

from repro import circuits
from repro.core.fom import FigureOfMerit
from repro.core.parallel import SimulationExecutor
from repro.experiments import make_initial_set, run_method
from repro.experiments.config import TUNED_MAOPT

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")
#: Probe tolerance: a changed device model or solver moves metrics by far
#: more; float reordering moves converged solutions by ~1e-12.
REFERENCE_RTOL = 1e-6
BASE_SEED = 2023
OPTIMIZER_SEED = 2023 * 1000 + 7
#: Relative perturbation of the base designs per seed (0.1 %).
JITTER = 1e-3
TASK_CLASSES = {"ota": "TwoStageOTA", "tia": "ThreeStageTIA"}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md says why each exists)."""

    name: str
    task: str                  # key of TASK_CLASSES
    method: str                # run_method name
    n_init: int
    n_sims: int
    n_probe: int               # base designs the reference probe simulates
    pass_s: float              # nominal seconds per pass; sets passes per run
    dominant: tuple[str, ...]  # spans that should hold most of run_s

    def make_task(self):
        return getattr(circuits, TASK_CLASSES[self.task])(fidelity="fast")

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload("ota-maopt", "ota", "MA-Opt", n_init=12, n_sims=12, n_probe=4,
             pass_s=3.5, dominant=("spice.tran",)),
    Workload("tia-maopt", "tia", "MA-Opt", n_init=30, n_sims=36, n_probe=8,
             pass_s=2.5, dominant=("training.critic", "training.actor",
                                   "training.propose")),
    Workload("tia-bo", "tia", "BO", n_init=30, n_sims=30, n_probe=8,
             pass_s=1.5, dominant=("gp.fit", "gp.predict")),
)}


@dataclasses.dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    f_init: np.ndarray
    foms: np.ndarray           # every design's FoM, initial set first
    best_fom: float
    success: bool
    problems: list[str]


def initial_designs(wl: Workload, task, seed: int, index: int) -> np.ndarray:
    """The base designs perturbed for pass ``index`` of seed ``seed``."""
    base = task.space.sample(np.random.default_rng(BASE_SEED), wl.n_init)
    rng = np.random.default_rng(
        [seed, index, zlib.crc32(wl.name.encode())])
    return np.clip(base * (1.0 + rng.normal(0.0, JITTER, base.shape)),
                   0.0, 1.0)


def run_pass(wl: Workload, task, seed: int, index: int) -> PassResult:
    """One pass; its wall time covers exactly the two public calls."""
    x_init = initial_designs(wl, task, seed, index)
    t0, c0 = time.perf_counter(), time.process_time()
    # The body of make_initial_set, on the given designs.
    with SimulationExecutor(task) as executor:
        f_init = executor.evaluate_batch(x_init, kind="init")
    result = run_method(wl.method, task, wl.n_sims, x_init, f_init,
                        seed=OPTIMIZER_SEED, maopt_overrides=dict(TUNED_MAOPT))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    foms = np.concatenate([FigureOfMerit(task)(f_init), result.foms])
    problems = []
    if f_init.shape != (wl.n_init, task.m + 1):
        problems.append(f"initial set has shape {f_init.shape}, expected "
                        f"({wl.n_init}, {task.m + 1})")
    if len(result.records) != wl.n_sims:
        problems.append(f"{len(result.records)} records for a budget of "
                        f"{wl.n_sims}")
    if not np.all(np.isfinite(foms)):
        problems.append(f"{int(np.sum(~np.isfinite(foms)))} non-finite FoMs")
    return PassResult(wall, cpu, f_init, foms, float(np.min(foms)),
                      result.success, problems)


def same_outputs(a: PassResult, b: PassResult) -> list[str]:
    """Problems if two passes over the same inputs differ at all."""
    if (a.foms.shape == b.foms.shape and np.array_equal(a.f_init, b.f_init)
            and np.array_equal(a.foms, b.foms)):
        return []
    return ["outputs differ between two passes over the same inputs"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def probe(wl: Workload, task) -> np.ndarray:
    """Metrics of the first ``n_probe`` base designs, unperturbed: they
    depend on neither the seed nor an optimizer's path."""
    return make_initial_set(task, wl.n_probe, seed=BASE_SEED)[1]


def reference_problems(measured, reference,
                       rtol: float = REFERENCE_RTOL) -> list[str]:
    """Problems if a probe metric matrix is off its reference."""
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if measured.shape != reference.shape:
        return [f"probe shape {measured.shape} != reference "
                f"{reference.shape}"]
    off = ~np.isclose(measured, reference, rtol=rtol, atol=0.0)
    if not off.any():
        return []
    i, j = np.argwhere(off)[0]
    return [f"{int(off.sum())} probe metric(s) off the reference beyond "
            f"rtol {rtol:g}; first at design {i}, metric {j}: "
            f"{measured[i, j]!r} vs {reference[i, j]!r}"]
