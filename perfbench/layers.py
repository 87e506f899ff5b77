"""The layers a traced run wraps, and the per-layer metrics it reports.

Span names are the metric prefixes.  Metrics are per pass (totals over the
traced passes divided by their number), so they compare with the per-pass
``run_s``.  A layer's ``busy_s`` counts its wall time once where its own
spans nest; spans of different layers overlap (the operating point a
transient starts from is in both ``spice.op.busy_s`` and
``spice.tran.busy_s``).
"""

from __future__ import annotations

import math
import statistics
import sys

from perfbench.tracing import SpanTracer, tail_percentile


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _called_from_spice() -> bool:
    # Frame 0 is this predicate, 1 the wrapper, 2 whoever called
    # numpy.linalg.solve: only the simulator's solves become spans.
    return sys._getframe(2).f_globals.get("__name__", "").startswith(
        "repro.spice")


def install(tracer: SpanTracer) -> None:
    """Wrap every instrumented layer; ``tracer.uninstall()`` undoes it."""
    import numpy.linalg
    import scipy.linalg

    from repro.analysis.diagnostics import Severity
    from repro.baselines.base import BaselineOptimizer
    from repro.baselines.gp import GaussianProcess
    from repro.circuits.common import CircuitTask
    from repro.core import near_sampling, training
    from repro.core.parallel import SimulationExecutor
    from repro.core.problem import SizingTask
    from repro.spice import ac, dc, noise, transient
    from repro.spice.netlist import Circuit

    counters = tracer.counters
    last = {"ctx": None, "circuit": None, "start": 0.0}

    def newton_step(args, kwargs, out):
        # Newton assembles once per iteration.  Each transient substep
        # attempt builds a fresh StampContext(time=t+h, dt=h); an attempt
        # that starts from the same t as the previous one is a halving.
        ctx = _arg(args, kwargs, 2, "ctx")
        if ctx.analysis != "tran":
            counters["spice.op.assembles"] += 1
            return None
        counters["spice.tran.newton_iters"] += 1
        if ctx is last["ctx"]:
            return None
        start = ctx.time - ctx.dt
        if (args[0] is last["circuit"] and abs(start - last["start"])
                <= 1e-9 * max(abs(start), ctx.dt)):
            counters["spice.tran.halvings"] += 1
        counters["spice.tran.attempts"] += 1
        last.update(ctx=ctx, circuit=args[0], start=start)
        return None

    def missing_metrics(args, kwargs, out):
        return sum(not _finite(out.get(name)) for name in args[0].metric_names)

    t = tracer
    t.patch_function(training.train_critic, "training.critic",
                     after=lambda a, k, out: _arg(a, k, 2, "steps"))
    t.patch_function(training.train_actor, "training.actor")
    t.patch_function(training.propose_design, "training.propose")
    t.patch_function(near_sampling.near_sampling_proposal, "near_sampling")
    t.patch_attr(SimulationExecutor, "evaluate_batch", "parallel",
                 after=lambda a, k, out: len(out))
    t.patch_attr(CircuitTask, "lint_design", "erc",
                 after=lambda a, k, out: any(
                     d.severity >= Severity.ERROR for d in out))
    t.patch_attr(SizingTask, "evaluate", "task.evaluate")
    t.patch_attr(CircuitTask, "simulate", "circuits", after=missing_metrics)
    t.patch_function(dc.operating_point, "spice.op",
                     after=lambda a, k, op: (op.iterations, op.strategy))
    t.patch_function(transient.transient_analysis, "spice.tran")
    t.patch_function(ac.ac_analysis, "spice.ac")
    t.patch_function(noise.noise_analysis, "spice.noise")
    t.patch_attr(Circuit, "assemble", "spice.assemble", after=newton_step)
    t.patch_attr(Circuit, "assemble_ac", "spice.assemble_ac")
    t.patch_attr(numpy.linalg, "solve", "spice.solve",
                 when=_called_from_spice)
    t.patch_function(scipy.linalg.lu_factor, "spice.solve")
    t.patch_function(scipy.linalg.lu_solve, "spice.solve")
    t.patch_attr(GaussianProcess, "fit", "gp.fit")
    t.patch_attr(GaussianProcess, "predict", "gp.predict")
    t.patch_attr(BaselineOptimizer, "run", "baselines.driver")


def metrics(tracer: SpanTracer, dominant: tuple[str, ...], passes: int,
            pass_s: float, n_metrics: int) -> dict[str, tuple[float, str]]:
    """``{name: (value, unit)}`` of ``passes`` traced passes whose timed
    calls took ``pass_s`` seconds in all; ``n_metrics`` is the task's
    metric-vector length."""
    t, counters, per = tracer, tracer.counters, 1.0 / passes

    def busy(*names: str) -> float:
        return t.busy_s(*names) * per

    def calls(name: str) -> float:
        return t.calls(name) * per

    def total(name: str) -> float:
        return sum(v or 0 for v in t.infos(name)) * per

    self_s = t.self_times()
    sims_ms = [d * 1e3 for d in t.durations_s("circuits")]
    tail_pct, tail_ms = tail_percentile(sims_ms)
    missing = [n_metrics if m is None else m for m in t.infos("circuits")]
    ops = [info for info in t.infos("spice.op") if info is not None]
    strategies = [strategy for _, strategy in ops]
    return {
        "training.critic.busy_s": (busy("training.critic"), "s"),
        "training.critic.steps": (total("training.critic"), "count"),
        "training.actor.busy_s": (busy("training.actor"), "s"),
        "training.actor.calls": (calls("training.actor"), "count"),
        "training.propose.busy_s": (busy("training.propose"), "s"),
        "near_sampling.busy_s": (busy("near_sampling"), "s"),
        "near_sampling.calls": (calls("near_sampling"), "count"),
        "parallel.busy_s": (busy("parallel"), "s"),
        "parallel.batches": (calls("parallel"), "count"),
        "parallel.designs": (total("parallel"), "count"),
        "parallel.self_s": (self_s.get("parallel", 0.0) * per, "s"),
        "erc.busy_s": (busy("erc"), "s"),
        "erc.designs": (calls("erc"), "count"),
        "erc.rejected": (total("erc"), "count"),
        "circuits.sims": (calls("circuits"), "count"),
        "circuits.busy_s": (busy("circuits"), "s"),
        "circuits.sim_ms.p50": (
            statistics.median(sims_ms) if sims_ms else 0.0, "ms"),
        "circuits.sim_ms.tail": (tail_ms, "ms"),
        "circuits.sim_ms.tail_pct": (tail_pct, "%"),
        "circuits.sim_ms.samples": (float(len(sims_ms)), "count"),
        "circuits.metric_missing_share": (
            sum(missing) / (len(missing) * n_metrics) if missing else 0.0,
            "ratio"),
        "spice.op.busy_s": (busy("spice.op"), "s"),
        "spice.op.calls": (calls("spice.op"), "count"),
        "spice.op.newton_iters": (sum(i for i, _ in ops) * per, "count"),
        "spice.op.assembles": (counters["spice.op.assembles"] * per, "count"),
        "spice.op.gmin_stepping": (
            strategies.count("gmin-stepping") * per, "count"),
        "spice.op.source_stepping": (
            strategies.count("source-stepping") * per, "count"),
        "spice.tran.busy_s": (busy("spice.tran"), "s"),
        "spice.tran.calls": (calls("spice.tran"), "count"),
        "spice.tran.substeps": ((counters["spice.tran.attempts"]
                                 - counters["spice.tran.halvings"]) * per,
                                "count"),
        "spice.tran.halvings": (counters["spice.tran.halvings"] * per,
                                "count"),
        "spice.tran.newton_iters": (
            counters["spice.tran.newton_iters"] * per, "count"),
        "spice.ac.busy_s": (busy("spice.ac"), "s"),
        "spice.ac.calls": (calls("spice.ac"), "count"),
        "spice.noise.busy_s": (busy("spice.noise"), "s"),
        "spice.noise.calls": (calls("spice.noise"), "count"),
        "spice.assemble.busy_s": (busy("spice.assemble"), "s"),
        "spice.assemble.calls": (calls("spice.assemble"), "count"),
        "spice.assemble_ac.busy_s": (busy("spice.assemble_ac"), "s"),
        "spice.solve.busy_s": (busy("spice.solve"), "s"),
        "spice.solve.calls": (calls("spice.solve"), "count"),
        "gp.fit.busy_s": (busy("gp.fit"), "s"),
        "gp.fit.calls": (calls("gp.fit"), "count"),
        "gp.predict.busy_s": (busy("gp.predict"), "s"),
        "baselines.driver.self_s": (
            self_s.get("baselines.driver", 0.0) * per, "s"),
        "dominant.share": (t.busy_s(*dominant) / pass_s, "ratio"),
    }
