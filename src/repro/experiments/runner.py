"""Method registry and the paper's multi-run comparison protocol.

Protocol (Section III-A): for each circuit and each repeat, one initial set
of ``n_init`` random designs is simulated once and *shared by every
method*; each method then spends the same ``n_sims`` simulation budget.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.config import MAOptConfig, VariantPreset
from repro.core.driver import Driver
from repro.core.ma_opt import MAOptimizer
from repro.core.problem import SizingTask
from repro.core.result import OptimizationResult

METHOD_NAMES = [
    "BO", "DNN-Opt", "MA-Opt1", "MA-Opt2", "MA-Opt",
    "Random", "PPO",
]

_PRESETS = {
    "DNN-Opt": VariantPreset.DNN_OPT,
    "MA-Opt1": VariantPreset.MA_OPT_1,
    "MA-Opt2": VariantPreset.MA_OPT_2,
    "MA-Opt": VariantPreset.MA_OPT,
}

#: Baseline method -> class name in :mod:`repro.baselines`.  The package is
#: imported on first use, so processes that run no baseline never load
#: BO's scipy stack.
_BASELINES = {
    "BO": "BayesOpt",
    "Random": "RandomSearch",
    "PPO": "PPOSizer",
}


def make_initial_set(task: SizingTask, n_init: int,
                     seed: int | None = None,
                     telemetry=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample and simulate the shared initial set X^init.

    The simulations run serially through a scoped
    :class:`~repro.core.parallel.SimulationExecutor`, so they are counted
    by ``telemetry`` and covered by the same failure rule (quarantine to
    penalty metrics) as the optimization loop.
    """
    from repro.core.parallel import SimulationExecutor

    rng = np.random.default_rng(seed)
    x_init = task.space.sample(rng, n_init)
    with SimulationExecutor(task, telemetry=telemetry) as executor:
        f_init = executor.evaluate_batch(x_init, kind="init")
    return x_init, f_init


#: Rounds between the checkpoints of a ``run_comparison`` cell.  Measured
#: on the TIA, the cheapest circuit per round: a DNN-Opt save costs ~24 ms
#: against ~60 ms per round, an MA-Opt save ~30-40 ms against ~170 ms, so
#: saving every 30 rounds costs a paper-method cell at most ~1.3% (see
#: docs/resilience.md).  A killed cell loses at most 30 rounds.
CELL_CHECKPOINT_EVERY = 30


def optimizer_class(method: str) -> type[Driver]:
    """The optimizer class that runs ``method`` (one of
    :data:`METHOD_NAMES`); its ``restore`` resumes that method's runs."""
    if method in _PRESETS:
        return MAOptimizer
    if method in _BASELINES:
        import repro.baselines

        return getattr(repro.baselines, _BASELINES[method])
    raise ValueError(f"unknown method {method!r}; options: {METHOD_NAMES}")


def run_method(method: str, task: SizingTask, n_sims: int,
               x_init: np.ndarray, f_init: np.ndarray,
               seed: int | None = None,
               maopt_overrides: dict | None = None,
               telemetry=None,
               checkpoint_path: str | None = None,
               checkpoint_every: int | None = None) -> OptimizationResult:
    """Run one named method under the shared-initial-set protocol.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is threaded into the
    optimizer; sharing one bundle across calls aggregates their traces
    and events (``run`` spans carry a ``method`` attribute).
    ``checkpoint_path``/``checkpoint_every`` go to the optimizer's
    ``run`` (see :meth:`~repro.core.ma_opt.MAOptimizer.run`).
    """
    cls = optimizer_class(method)
    if cls is MAOptimizer:
        cfg = MAOptConfig.from_preset(_PRESETS[method], seed=seed,
                                      **(maopt_overrides or {}))
        return MAOptimizer(task, cfg, telemetry=telemetry).run(
            n_sims=n_sims, x_init=x_init, f_init=f_init, method_name=method,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every)
    return cls(task, seed=seed, telemetry=telemetry).run(
        n_sims=n_sims, x_init=x_init, f_init=f_init,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every)


def run_comparison(task: SizingTask, methods: list[str] | tuple[str, ...],
                   n_runs: int, n_sims: int, n_init: int,
                   seed: int = 0,
                   maopt_overrides: dict | None = None,
                   verbose: bool = False,
                   telemetry=None,
                   checkpoint_dir: str | pathlib.Path | None = None,
                   run_store=None
                   ) -> dict[str, list[OptimizationResult]]:
    """The full Table II/IV/VI experiment for one circuit.

    Returns method -> list of per-repeat results.  Repeat ``r`` uses the
    same initial set for every method (seeded by ``seed + r``).  A shared
    ``telemetry`` bundle collects every method's spans and events.

    With ``checkpoint_dir`` the comparison is resumable: each (method,
    repeat) cell checkpoints to ``<dir>/<method>_run<r>.npz`` every
    :data:`CELL_CHECKPOINT_EVERY` rounds and at its end.  A re-invocation
    with the same directory loads a finished cell's archive with
    :func:`~repro.core.driver.load_result` and restores an in-flight cell,
    which finishes its budget as the uninterrupted run would have.

    With ``run_store`` (a :class:`repro.obs.store.RunStore`) every
    (method, repeat) cell additionally gets its own durable run record —
    ``ma-opt runs list`` then shows the whole study as comparable rows.
    """
    from repro.core.driver import load_result

    if checkpoint_dir is not None:
        checkpoint_dir = pathlib.Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[OptimizationResult]] = {m: [] for m in methods}
    for r in range(n_runs):
        run_seed = seed + r
        archives = {m: None if checkpoint_dir is None
                    else checkpoint_dir / f"{m.replace('/', '_')}_run{r}.npz"
                    for m in methods}
        x_init = f_init = None
        if any(a is None or not a.exists() for a in archives.values()):
            # Only a cell without an archive needs the initial set.
            x_init, f_init = make_initial_set(task, n_init, seed=run_seed,
                                              telemetry=telemetry)
        for method in methods:
            archive = archives[method]
            resume = archive is not None and archive.exists()
            if resume:
                res = load_result(archive)
                if res.n_sims >= n_sims:
                    results[method].append(res)
                    if verbose:
                        print(f"[run {r}] {method:8s} restored from "
                              f"checkpoint (best_fom={res.best_fom:.4g})")
                    continue
            recorder = None
            cell_telemetry = telemetry
            if run_store is not None:
                recorder = run_store.create_run(
                    method=method, task=task.name, base=telemetry,
                    meta={"repeat": r, "n_sims": n_sims, "n_init": n_init,
                          "seed": run_seed})
                cell_telemetry = recorder.telemetry
            checkpoint = ({} if archive is None else
                          {"checkpoint_path": str(archive),
                           "checkpoint_every": CELL_CHECKPOINT_EVERY})
            try:
                if resume:
                    res = optimizer_class(method).restore(
                        archive, task, telemetry=cell_telemetry).run(
                            n_sims=n_sims, **checkpoint)
                else:
                    res = run_method(method, task, n_sims, x_init, f_init,
                                     seed=run_seed * 1000 + 7,
                                     maopt_overrides=maopt_overrides,
                                     telemetry=cell_telemetry, **checkpoint)
            except KeyboardInterrupt:
                if recorder is not None:
                    recorder.finalize(status="interrupted")
                raise
            except Exception as exc:
                if recorder is not None:
                    recorder.mark_failed(repr(exc))
                raise
            results[method].append(res)
            if verbose:
                bf = res.best_feasible()
                print(f"[run {r}] {method:8s} best_fom={res.best_fom:.4g} "
                      f"success={res.success} "
                      f"target={'-' if bf is None else f'{bf.metrics[0]:.4g}'} "
                      f"time={res.wall_time_s:.1f}s")
    return results
