"""Method registry and the paper's multi-run comparison protocol.

Protocol (Section III-A): for each circuit and each repeat, one initial set
of ``n_init`` random designs is simulated once and *shared by every
method*; each method then spends the same ``n_sims`` simulation budget.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.config import MAOptConfig, VariantPreset
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


def run_method(method: str, task: SizingTask, n_sims: int,
               x_init: np.ndarray, f_init: np.ndarray,
               seed: int | None = None,
               maopt_overrides: dict | None = None,
               telemetry=None,
               checkpoint_path: str | None = None,
               checkpoint_every: int | None = None) -> OptimizationResult:
    """Run one named method under the shared-initial-set protocol.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is threaded into the
    optimizer; sharing one bundle across calls aggregates their traces,
    metrics, and events (``run`` spans carry a ``method`` attribute).
    ``checkpoint_path``/``checkpoint_every`` go to
    :meth:`~repro.core.ma_opt.MAOptimizer.run`; only the MA-Opt family
    checkpoints.
    """
    if method in _PRESETS:
        cfg = MAOptConfig.from_preset(_PRESETS[method], seed=seed,
                                      **(maopt_overrides or {}))
        opt = MAOptimizer(task, cfg, telemetry=telemetry)
        return opt.run(n_sims=n_sims, x_init=x_init, f_init=f_init,
                       method_name=method, checkpoint_path=checkpoint_path,
                       checkpoint_every=checkpoint_every)
    if method in _BASELINES:
        if checkpoint_path is not None or checkpoint_every is not None:
            raise ValueError(f"{method} does not checkpoint; only the "
                             f"MA-Opt family ({', '.join(_PRESETS)}) does")
        import repro.baselines

        cls = getattr(repro.baselines, _BASELINES[method])
        opt = cls(task, seed=seed, telemetry=telemetry)
        return opt.run(n_sims=n_sims, x_init=x_init, f_init=f_init)
    raise ValueError(f"unknown method {method!r}; options: {METHOD_NAMES}")


def _checkpoint_name(method: str, run: int) -> str:
    return f"{method.replace('/', '_')}_run{run}.npz"


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
    ``telemetry`` bundle collects every method's spans/metrics/events.

    With ``checkpoint_dir`` the comparison becomes resumable at
    (method, run) granularity: each completed run is archived there via
    :func:`repro.core.serialize.save_result`, and a re-invocation with the
    same directory loads the archives instead of re-running those cells.
    Simulation budgets are the expensive resource, so a killed comparison
    loses at most one in-flight run.

    With ``run_store`` (a :class:`repro.obs.store.RunStore`) every
    (method, repeat) cell additionally gets its own durable run record —
    ``ma-opt runs list`` then shows the whole study as comparable rows.
    """
    from repro.core.serialize import load_result, save_result

    if checkpoint_dir is not None:
        checkpoint_dir = pathlib.Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[OptimizationResult]] = {m: [] for m in methods}
    for r in range(n_runs):
        run_seed = seed + r
        todo = [m for m in methods
                if checkpoint_dir is None
                or not (checkpoint_dir / _checkpoint_name(m, r)).exists()]
        x_init = f_init = None
        if todo:  # a fully-restored repeat never re-simulates its init set
            x_init, f_init = make_initial_set(task, n_init, seed=run_seed,
                                              telemetry=telemetry)
        for method in methods:
            if method not in todo:
                res = load_result(checkpoint_dir / _checkpoint_name(method, r))
                results[method].append(res)
                if verbose:
                    print(f"[run {r}] {method:8s} restored from checkpoint "
                          f"(best_fom={res.best_fom:.4g})")
                continue
            recorder = None
            cell_telemetry = telemetry
            if run_store is not None:
                recorder = run_store.create_run(
                    method=method, task=task.name, base=telemetry,
                    meta={"repeat": r, "n_sims": n_sims, "n_init": n_init,
                          "seed": run_seed})
                cell_telemetry = recorder.telemetry
            try:
                res = run_method(method, task, n_sims, x_init, f_init,
                                 seed=run_seed * 1000 + 7,
                                 maopt_overrides=maopt_overrides,
                                 telemetry=cell_telemetry)
            except KeyboardInterrupt:
                if recorder is not None:
                    recorder.finalize(status="interrupted")
                raise
            except Exception as exc:
                if recorder is not None:
                    recorder.mark_failed(repr(exc))
                raise
            results[method].append(res)
            if checkpoint_dir is not None:
                save_result(res, checkpoint_dir / _checkpoint_name(method, r))
            if verbose:
                bf = res.best_feasible()
                print(f"[run {r}] {method:8s} best_fom={res.best_fom:.4g} "
                      f"success={res.success} "
                      f"target={'-' if bf is None else f'{bf.metrics[0]:.4g}'} "
                      f"time={res.wall_time_s:.1f}s")
    return results
