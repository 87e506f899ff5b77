"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``describe <task>``   print the task's target, constraints and Table of
                      parameter ranges.
``optimize <task>``   run one optimizer (default MA-Opt) on the task and
                      report the best design.
``compare <task>``    run the paper's multi-method comparison and print the
                      Table II/IV/VI-style summary plus the Fig. 5 panel.
``netlist <task>``    print the netlist of a design (mid-space by default).
``lint <targets>``    static analysis: ERC over task netlists or deck
                      files, ``--config`` cross-validation, ``--code``
                      AST lint (``--flow`` adds RNG provenance),
                      ``--shapes`` paper dimension contracts (``--all``
                      for both).  Exit 1 on error-severity findings.
``bench <cmd>``       performance benchmarking: ``run`` the micro/macro
                      suites, ``compare`` two result files (exit 1 on
                      regression), ``list`` the registry.
``runs <cmd>``        query the durable run store (``--store`` on
                      optimize/compare): ``list``, ``show``, ``diff``,
                      ``export`` (json/prom/sarif).
``tail <run>``        follow a live run's event/metric stream (poll +
                      offset resume; works on finished runs with
                      ``--once``).
``serve``             run the optimization job service: async job
                      queue with priority lanes and per-tenant caps on
                      a local socket; ``--resume`` continues a killed
                      server's unfinished jobs from checkpoints.
``submit <task>``     submit a job to a running server (``--wait`` to
                      block until it finishes).
``jobs <cmd>``        query the server: ``list``, ``status``,
                      ``result``, ``cancel``, ``tail`` (follows the
                      job's run directory live).

Tasks: ``ota``, ``tia``, ``ldo``, ``sphere`` (cheap synthetic).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.experiments.config import TUNED_MAOPT as _MAOPT_TUNED


def _make_task(name: str, fidelity: str, corner: str = "tt"):
    from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
    from repro.core.synthetic import ConstrainedSphere

    factories = {
        "ota": lambda: TwoStageOTA(fidelity=fidelity, corner=corner),
        "tia": lambda: ThreeStageTIA(fidelity=fidelity, corner=corner),
        "ldo": lambda: LDORegulator(fidelity=fidelity, corner=corner),
        "sphere": lambda: ConstrainedSphere(d=12, seed=3),
    }
    try:
        return factories[name]()
    except KeyError:
        raise SystemExit(
            f"unknown task {name!r}; options: {sorted(factories)}"
        ) from None



def cmd_describe(args: argparse.Namespace) -> int:
    from repro.experiments import parameter_table

    task = _make_task(args.task, args.fidelity, args.corner)
    print(task.describe())
    print()
    print(parameter_table(task))
    return 0


def _build_telemetry(args: argparse.Namespace):
    """Telemetry bundle for the CLI's --log-level/--trace-out/--metrics-out/
    --events-out flags; returns None when no flag is set (no-op fast path)."""
    from repro.obs import (MetricsRegistry, RunLogger, Telemetry, Tracer,
                           configure_logging)

    wants = (args.log_level or args.trace_out or args.metrics_out
             or args.events_out)
    if not wants:
        return None
    # Fail before the run, not after: --trace-out/--metrics-out only write
    # at export time, so a bad path would otherwise waste the whole run.
    for path in (args.trace_out, args.metrics_out, args.events_out):
        if path:
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                raise SystemExit(f"repro: error: cannot write {path}: "
                                 f"{exc.strerror or exc}")
    logger = None
    if args.log_level:
        logger = configure_logging(args.log_level)
    run_logger = None
    if args.events_out or logger is not None:
        run_logger = RunLogger(path=args.events_out, logger=logger)
    return Telemetry(
        tracer=Tracer() if args.trace_out else None,
        metrics=MetricsRegistry() if args.metrics_out else None,
        run_logger=run_logger,
    )


def _finish_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Export the sinks selected on the command line.

    ``telemetry`` may be the bundle built by :func:`_build_telemetry` or a
    run-store recorder's bundle (which always carries every channel), so
    each export is gated on its flag actually being set.
    """
    if telemetry is None:
        return
    if telemetry.tracer is not None and args.trace_out:
        n = telemetry.tracer.export_jsonl(args.trace_out)
        print(f"wrote {n} spans to {args.trace_out}")
        from repro.obs.report import report_from_tracer

        print(report_from_tracer(telemetry.tracer))
    if telemetry.metrics is not None and args.metrics_out:
        telemetry.metrics.export(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if telemetry.run_logger is not None:
        telemetry.run_logger.close()
        if args.events_out:
            # Store-backed loggers stream into the run directory; the
            # in-memory dump covers --events-out for both shapes.
            telemetry.run_logger.export_jsonl(args.events_out)
            print(f"wrote {len(telemetry.run_logger)} events "
                  f"to {args.events_out}")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log-level", default=None,
                   choices=("debug", "info", "warning", "error"),
                   help="mirror run events to stdlib logging at this level")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the span trace as JSONL and print a "
                        "per-phase wall-time breakdown")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="export metrics (.csv -> CSV, else JSON)")
    p.add_argument("--events-out", metavar="PATH", default=None,
                   help="write one JSONL run event per evaluation/round")


_MA_METHODS = ("DNN-Opt", "MA-Opt1", "MA-Opt2", "MA-Opt")


def _build_resilience(args: argparse.Namespace):
    """ResilienceConfig from the --max-retries/--sim-timeout/--checkpoint*
    flags; None (the executor's default policy) when none of them is set."""
    if not (args.max_retries or args.sim_timeout is not None
            or args.checkpoint or args.checkpoint_every):
        return None
    from repro.core.config import ResilienceConfig

    return ResilienceConfig(
        max_retries=args.max_retries,
        sim_timeout_s=args.sim_timeout,
        checkpoint_every=args.checkpoint_every or 0,
        checkpoint_path=args.checkpoint,
    )


def _wrap_faults(task, args: argparse.Namespace):
    """Wrap the task in a seeded FaultyTask when --inject-faults is set."""
    if not args.inject_faults:
        return task
    from repro.resilience import FaultyTask

    rate = args.inject_faults
    if not 0.0 < rate <= 1.0:
        raise SystemExit("repro: error: --inject-faults must be in (0, 1]")
    return FaultyTask(task, error_rate=rate / 2, nan_rate=rate / 2,
                      seed=args.seed)


def _reject_ma_only_flags(args: argparse.Namespace) -> None:
    """Baselines take no retry, timeout, checkpoint or resume settings."""
    if args.method in _MA_METHODS:
        return
    given = [flag for flag, value in (
        ("--resume", args.resume), ("--max-retries", args.max_retries),
        ("--sim-timeout", args.sim_timeout is not None),
        ("--checkpoint", args.checkpoint),
        ("--checkpoint-every", args.checkpoint_every is not None)) if value]
    if given:
        raise SystemExit(
            f"repro: error: {', '.join(given)}: only the MA-Opt family "
            f"({', '.join(_MA_METHODS)}) supports this, not {args.method!r}")


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.experiments import make_initial_set, run_method

    _reject_ma_only_flags(args)
    task = _wrap_faults(_make_task(args.task, args.fidelity, args.corner),
                        args)
    resilience = _build_resilience(args)
    telemetry = _build_telemetry(args)
    recorder = None
    if args.store:
        from repro.obs.store import RunStore

        recorder = RunStore(args.store).create_run(
            method=args.method, task=task.name, base=telemetry,
            meta={"seed": args.seed, "n_sims": args.sims,
                  "n_init": args.init})
        telemetry = recorder.telemetry
        print(f"run {recorder.run_id} recording to "
              f"{args.store}/{recorder.run_id} "
              f"(follow with: ma-opt tail {recorder.run_id})")
    overrides = dict(_MAOPT_TUNED)
    if resilience is not None:
        overrides["resilience"] = resilience
    if args.parallel:
        overrides["parallel"] = True
    if args.heartbeat:
        overrides["heartbeat_s"] = args.heartbeat
    try:
        if args.resume:
            from repro.core.ma_opt import MAOptimizer

            opt = MAOptimizer.restore(args.resume, task, telemetry=telemetry)
            print(f"{args.method} on {task.name!r}: resumed from "
                  f"{args.resume} at {len(opt.records)} sims, "
                  f"running to {args.sims}")
            res = opt.run(n_sims=args.sims, method_name=args.method,
                          checkpoint_path=args.checkpoint,
                          checkpoint_every=args.checkpoint_every)
        else:
            print(f"{args.method} on {task.name!r}: "
                  f"{args.init} init + {args.sims} sims (seed {args.seed})")
            x, f = make_initial_set(task, args.init, seed=args.seed,
                                    telemetry=telemetry,
                                    resilience=resilience)
            res = run_method(args.method, task, args.sims, x, f,
                             seed=args.seed, maopt_overrides=overrides,
                             telemetry=telemetry)
    except Exception as exc:
        if recorder is not None:
            recorder.mark_failed(repr(exc))
        raise
    _finish_telemetry(args, telemetry)
    trace = res.best_fom_trace()
    print(f"best FoM: {trace[0]:.4f} -> {trace[-1]:.4f}; "
          f"specs met: {res.success}; wall {res.wall_time_s:.1f}s")
    best = res.best_feasible() or res.best_record()
    print("best design:")
    for name, value in task.space.denormalize(best.x).items():
        print(f"  {name:6s} = {value:.4f} {task.space[name].unit}")
    print("metrics:")
    for name, value in zip(task.metric_names, best.metrics):
        print(f"  {name:10s} = {value:.5g}")
    if args.save:
        from repro.core.serialize import save_result

        save_result(res, args.save)
        print(f"saved run to {args.save}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import comparison_table, fom_curves, run_comparison
    from repro.experiments.figures import render_ascii

    task = _make_task(args.task, args.fidelity)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    telemetry = _build_telemetry(args)
    run_store = None
    if args.store:
        from repro.obs.store import RunStore

        run_store = RunStore(args.store)
        print(f"recording each (method, run) cell to {args.store}/")
    results = run_comparison(task, methods, n_runs=args.runs,
                             n_sims=args.sims, n_init=args.init,
                             seed=args.seed, verbose=not args.quiet,
                             maopt_overrides=_MAOPT_TUNED,
                             telemetry=telemetry,
                             checkpoint_dir=args.checkpoint_dir,
                             run_store=run_store)
    _finish_telemetry(args, telemetry)
    print()
    print(comparison_table(results, task))
    print()
    print(render_ascii(fom_curves(results),
                       title=f"FoM convergence on {task.name}"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    build_report(args.results, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_netlist(args: argparse.Namespace) -> int:
    task = _make_task(args.task, args.fidelity)
    builders = {}
    try:
        from repro.circuits.ldo import build_ldo
        from repro.circuits.ota import build_ota
        from repro.circuits.tia import build_tia

        builders = {"ota": build_ota, "tia": build_tia, "ldo": build_ldo}
    except ImportError:  # pragma: no cover
        pass
    if args.task not in builders:
        raise SystemExit(f"no netlist builder for task {args.task!r}")
    u = np.full(task.d, args.point)
    params = task.space.denormalize(u)
    print(builders[args.task](params).netlist_text())
    return 0


def _cell(value, spec: str = "") -> str:
    """Table cell: '-' for missing values, formatted otherwise."""
    if value is None:
        return "-"
    return format(value, spec)


def cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.obs.store import RunStore

    records = RunStore(args.store).list_runs()
    if not records:
        print(f"no runs in {args.store}/")
        return 0
    header = (f"{'run_id':<24} {'status':<9} {'method':<10} {'task':<14} "
              f"{'sims':>6} {'best_fom':>12} {'ok':>3} {'wall_s':>8}")
    print(header)
    print("-" * len(header))
    for record in records:
        s = record.summary()
        ok = "-" if s["success"] is None else ("yes" if s["success"]
                                               else "no")
        print(f"{s['run_id']:<24} {_cell(s['status']):<9} "
              f"{_cell(s['method']):<10} {_cell(s['task']):<14} "
              f"{_cell(s['n_sims']):>6} {_cell(s['best_fom'], '.6g'):>12} "
              f"{ok:>3} {_cell(s['wall_time_s'], '.2f'):>8}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.store import RunStore

    try:
        record = RunStore(args.store).load(args.run)
    except KeyError as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    print(_json.dumps(record.manifest, indent=2, sort_keys=True))
    by_kind: dict[str, int] = {}
    for event in record.events():
        kind = str(event.get("event"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    if by_kind:
        print("\nevents:")
        for kind in sorted(by_kind):
            print(f"  {kind:<20} {by_kind[kind]}")
    trace = record.trace_rows()
    if trace:
        from repro.obs.report import breakdown, render_breakdown

        print()
        print(render_breakdown(breakdown(trace),
                               title=f"wall-time breakdown: {record.run_id}"))
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.store import RunStore, diff_runs

    store = RunStore(args.store)
    try:
        diff = diff_runs(store.load(args.a), store.load(args.b))
    except KeyError as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    print(f"diff {diff['a']} .. {diff['b']}")
    if not diff["fields"] and not diff["counters"]:
        print("  (no differences)")
        return 0
    for name, entry in diff["fields"].items():
        delta = (f"  (delta {entry['delta']:+g})" if "delta" in entry
                 else "")
        print(f"  {name}: {entry['a']} -> {entry['b']}{delta}")
    for key, entry in diff["counters"].items():
        print(f"  counter {key}: {entry['a']:g} -> {entry['b']:g} "
              f"(delta {entry['delta']:+g})")
    return 0


def cmd_runs_export(args: argparse.Namespace) -> int:
    from repro.obs.store import RunStore, export_run

    try:
        record = RunStore(args.store).load(args.run)
        text = export_run(record, args.format)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.format} export of {record.run_id} "
              f"to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    from repro.obs.tail import resolve_run_dir, tail_run

    try:
        run_dir = resolve_run_dir(args.run, store_root=args.store)
    except KeyError as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    try:
        tail_run(run_dir, poll_s=args.poll, once=args.once,
                 max_polls=args.max_polls, stall_after_s=args.stall_after)
    except KeyboardInterrupt:
        return 130
    return 0


def _shapes_root(code_paths: list[str]):
    """The ``repro`` package dir to run shape contracts over: the first
    ``--code`` path that contains ``core/networks.py`` (so ``--code
    src/repro`` checks the tree being linted), else the installed
    package (``check_shapes`` default)."""
    import pathlib

    for path in code_paths:
        p = pathlib.Path(path)
        if (p / "core" / "networks.py").exists():
            return p
    return None


def _lint_code_path(path: str, args: argparse.Namespace) -> list:
    """codelint (+ the rngflow pass with ``--flow``) over one ``--code``
    target."""
    from repro.analysis.codelint import lint_source
    from repro.analysis.flow import iter_python_files

    passes = [lint_source]
    if args.flow:
        from repro.analysis.rngflow import check_source as rng_check

        passes.append(rng_check)
    diags: list = []
    for f in iter_python_files([path]):
        source = f.read_text(encoding="utf-8")
        for run in passes:
            diags.extend(run(source, str(f)))
    return diags


def _lint_groups(args: argparse.Namespace) -> list[tuple[str, list]]:
    """Collect ``(target label, diagnostics)`` groups for ``lint``."""
    import os

    from repro.analysis.configlint import check_config
    from repro.analysis.erc import lint_deck

    groups: list[tuple[str, list]] = []
    for target in args.targets:
        if os.path.exists(target):
            with open(target, encoding="utf-8") as fh:
                groups.append((target, lint_deck(fh.read())))
            continue
        try:
            task = _make_task(target, args.fidelity, args.corner)
        except SystemExit:
            print(f"repro: error: unknown lint target {target!r} "
                  f"(neither a file nor a task name)", file=sys.stderr)
            raise SystemExit(2) from None
        lint_design = getattr(task, "lint_design", None)
        if lint_design is None:
            raise SystemExit(
                f"repro: error: task {target!r} has no netlist to lint")
        u = np.full(task.d, args.point)
        groups.append((target, lint_design(u)))
    if args.config:
        from repro.core.config import MAOptConfig

        config = MAOptConfig(**_MAOPT_TUNED)
        task = (_make_task(args.task, args.fidelity, args.corner)
                if args.task else None)
        groups.append(("config", check_config(
            config, task=task, n_sims=args.sims, n_init=args.init)))
    for path in args.code:
        if not os.path.exists(path):
            raise SystemExit(f"repro: error: no such path {path!r}")
        groups.append((path, _lint_code_path(path, args)))
    if args.shapes:
        from repro.analysis.shapes import check_shapes

        groups.append(("shapes", check_shapes(_shapes_root(args.code))))
    return groups


def _unknown_prefixes(prefixes) -> list[str]:
    """``--select/--ignore`` values matching no registered rule id."""
    from repro.analysis import all_rules

    known = [r.id for r in all_rules()] + ["code.syntax"]
    bad = []
    for prefix in prefixes:
        stem = prefix.rstrip(".")
        if not any(rid == stem or rid.startswith(stem + ".")
                   for rid in known):
            bad.append(prefix)
    return bad


def cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.diagnostics import (exit_code, filter_diagnostics,
                                            render_text, sort_diagnostics)

    if args.all:
        args.flow = args.shapes = True
    if not args.targets and not args.config and not args.code \
            and not args.shapes:
        print("repro: error: nothing to lint — give task names / deck "
              "files, --config, --code PATH, or --shapes",
              file=sys.stderr)
        return 2
    bad = _unknown_prefixes([*args.select, *args.ignore])
    if bad:
        print(f"repro: error: --select/--ignore prefix(es) matching no "
              f"registered rule: {', '.join(sorted(bad))} "
              f"(see 'ma-opt lint' docs for the catalog)",
              file=sys.stderr)
        return 2
    groups = [(label, sort_diagnostics(filter_diagnostics(
        diags, select=args.select, ignore=args.ignore)))
        for label, diags in _lint_groups(args)]
    everything = [d for _, diags in groups for d in diags]

    # -- baseline ratchet -----------------------------------------------------
    n_suppressed = 0
    if args.update_baseline:
        from repro.analysis.baseline import DEFAULT_BASELINE_PATH, Baseline

        target = args.baseline or DEFAULT_BASELINE_PATH
        Baseline.from_diagnostics(everything).save(target)
        if args.format != "json":
            print(f"froze {len(everything)} finding(s) into {target}")
        return 0
    if args.baseline is not None:
        from repro.analysis.baseline import Baseline

        screen = Baseline.load(args.baseline).apply(everything)
        suppressed = {id(d) for d in screen.suppressed}
        n_suppressed = len(screen.suppressed)
        groups = [(label, [d for d in diags if id(d) not in suppressed])
                  for label, diags in groups]
        everything = screen.new

    if args.sarif_out:
        from repro.analysis import RULE_SETS
        from repro.analysis.sarif import render_sarif

        with open(args.sarif_out, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(everything, rule_sets=RULE_SETS))

    if args.format == "json":
        for label, diags in groups:
            for d in diags:
                print(_json.dumps({"target": label, **d.to_dict()},
                                  sort_keys=True))
    else:
        for label, diags in groups:
            if len(groups) > 1:
                print(f"== {label} ==")
            print(render_text(diags))
        if n_suppressed:
            print(f"{n_suppressed} baseline-suppressed finding(s) "
                  f"not shown")
    return exit_code(everything)


def _parse_threshold(value: str) -> float:
    """Percent -> fraction, rejecting negatives (for --threshold)."""
    try:
        pct = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if pct < 0:
        raise argparse.ArgumentTypeError("threshold must be >= 0")
    return pct / 100.0


def cmd_bench_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.bench import (append_entry, builtin_registry, render_result,
                             run_benchmarks, save_result)

    telemetry = _build_telemetry(args)
    try:
        doc = run_benchmarks(
            builtin_registry(), filters=args.filter, seed=args.seed,
            repeats=args.repeats, warmup=args.warmup, telemetry=telemetry,
            profile=args.profile, profile_top=args.profile_top,
            progress=None if args.format == "json" else print)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    _finish_telemetry(args, telemetry)
    if args.out:
        save_result(doc, args.out)
        if args.format != "json":
            print(f"wrote {args.out}")
    if args.trajectory:
        append_entry(args.trajectory, doc)
        if args.format != "json":
            print(f"appended to {args.trajectory}")
    if args.format == "json":
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_result(doc))
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.bench import (DEFAULT_THRESHOLD, compare_results, exit_code,
                             load_result, render_rows)

    per_bench: dict[str, float] = {}
    for spec in args.threshold_for:
        name, sep, pct = spec.partition("=")
        if not sep or not name:
            print(f"repro: error: --threshold-for wants NAME=PERCENT, "
                  f"got {spec!r}", file=sys.stderr)
            return 2
        try:
            per_bench[name] = _parse_threshold(pct)
        except argparse.ArgumentTypeError as exc:
            print(f"repro: error: --threshold-for {name}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        baseline = load_result(args.baseline)
        current = load_result(args.current)
    except (OSError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    threshold = (DEFAULT_THRESHOLD if args.threshold is None
                 else args.threshold)
    rows = compare_results(baseline, current, threshold=threshold,
                           per_bench=per_bench)
    if args.format == "json":
        for row in rows:
            print(_json.dumps(row, sort_keys=True))
    else:
        print(render_rows(rows))
    return exit_code(rows, warn_only=args.warn_only)


def cmd_bench_list(args: argparse.Namespace) -> int:
    import json as _json

    from repro.bench import builtin_registry

    benches = builtin_registry().select(args.filter)
    if args.format == "json":
        for b in benches:
            print(_json.dumps({"name": b.name, "tier": b.tier,
                               "repeats": b.repeats, "warmup": b.warmup,
                               "description": b.description},
                              sort_keys=True))
    else:
        for b in benches:
            print(f"{b.name:<28} [{b.tier}] {b.description}")
    return 0


def _parse_set(pairs) -> dict:
    """Parse repeated ``--set key=value`` pairs (values parsed as JSON,
    falling back to strings)."""
    import json as _json

    overrides: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key.strip():
            raise SystemExit(f"repro: error: --set expects KEY=VALUE, "
                             f"got {pair!r}")
        try:
            value = _json.loads(raw)
        except ValueError:
            value = raw
        overrides[key.strip()] = value
    return overrides


def _job_line(record: dict) -> str:
    """One-line rendering of a job record (list/status output)."""
    spec = record.get("spec", {})
    summary = record.get("summary", {})
    line = (f"{record['job_id']}  [{record['state']}]  "
            f"{spec.get('method')} on {spec.get('task')}  "
            f"sims={spec.get('n_sims')}  tenant={spec.get('tenant')}  "
            f"priority={spec.get('priority')}")
    if summary.get("best_fom") is not None:
        line += (f"  best_fom={summary['best_fom']:.6g}"
                 f"  success={summary.get('success')}")
    if record.get("error"):
        line += f"  error={record['error']}"
    return line


def _print_serve_error(exc) -> None:
    print(f"repro: error: {exc}", file=sys.stderr)
    for diag in exc.diagnostics:
        print(f"  {diag.get('severity')}: {diag.get('rule')}: "
              f"{diag.get('message')}", file=sys.stderr)


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import time as _time

    from repro.core.config import ServeConfig
    from repro.serve import JobManager, JobServer

    config = ServeConfig(max_workers=args.workers,
                         tenant_cap=args.tenant_cap,
                         checkpoint_every=args.checkpoint_every)
    manager = JobManager(args.root, config)
    if args.resume:
        requeued = manager.resume()
        print(f"resumed {len(requeued)} unfinished job(s)"
              + (": " + ", ".join(requeued) if requeued else ""))
    manager.start()
    server = JobServer(manager, host=args.host, port=args.port).start()
    print(f"ma-opt serve: listening on {server.host}:{server.port}  "
          f"(root={args.root}, workers={config.max_workers}, "
          f"tenant_cap={config.tenant_cap})")
    print(f"submit with: ma-opt submit <task> --root {args.root}",
          flush=True)
    deadline = (None if args.max_seconds is None
                else _time.monotonic() + args.max_seconds)

    def _on_sigterm(signum, frame):
        # Same clean-shutdown path as Ctrl-C, for supervisors and CI
        # (background shells start children with SIGINT ignored).
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
        manager.close(drain=args.drain)
    counts = manager.counts()
    tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"ma-opt serve: stopped ({tally or 'no jobs'})")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import JobClient, ServeError

    spec = {
        "task": args.task,
        "method": args.method,
        "fidelity": args.fidelity,
        "n_sims": args.sims,
        "n_init": args.init,
        "seed": args.seed,
        "priority": args.priority,
        "tenant": args.tenant,
        "timeout_s": args.timeout,
        "overrides": _parse_set(args.set),
    }
    try:
        with JobClient.connect(args.root) as client:
            job = client.submit(spec)
            print(_job_line(job))
            for diag in job.get("warnings", ()):
                print(f"  warning: {diag.get('rule')}: "
                      f"{diag.get('message')}")
            print(f"follow with: ma-opt jobs tail {job['job_id']} "
                  f"--root {args.root}")
            if not args.wait:
                return 0
            record = client.wait(job["job_id"])
    except ServeError as exc:
        _print_serve_error(exc)
        return 2
    print(_job_line(record))
    return 0 if record["state"] == "finished" else 1


def cmd_jobs_list(args: argparse.Namespace) -> int:
    from repro.serve import JobClient, ServeError

    try:
        with JobClient.connect(args.root) as client:
            records = client.list_jobs(tenant=args.tenant,
                                       state=args.state)
    except ServeError as exc:
        _print_serve_error(exc)
        return 2
    for record in records:
        print(_job_line(record))
    if not records:
        print("no jobs")
    return 0


def _cmd_jobs_simple(args: argparse.Namespace, op: str) -> int:
    import json as _json

    from repro.serve import JobClient, ServeError

    try:
        with JobClient.connect(args.root) as client:
            record = getattr(client, op)(args.job_id)
    except ServeError as exc:
        _print_serve_error(exc)
        return 2
    if getattr(args, "json", False):
        print(_json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_job_line(record))
    return 0


def cmd_jobs_status(args: argparse.Namespace) -> int:
    return _cmd_jobs_simple(args, "status")


def cmd_jobs_result(args: argparse.Namespace) -> int:
    return _cmd_jobs_simple(args, "result")


def cmd_jobs_cancel(args: argparse.Namespace) -> int:
    return _cmd_jobs_simple(args, "cancel")


def cmd_jobs_tail(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.tail import tail_run
    from repro.serve import JobClient, ServeError

    try:
        with JobClient.connect(args.root) as client:
            info = client.tail_info(args.job_id)
            while info["run_dir"] is None and info["state"] == "queued":
                _time.sleep(args.poll)  # queued: no attempt to tail yet
                info = client.tail_info(args.job_id)
    except ServeError as exc:
        _print_serve_error(exc)
        return 2
    if info["run_dir"] is None:
        print(f"repro: error: job {args.job_id} is {info['state']} and "
              f"never started a run", file=sys.stderr)
        return 1
    print(f"tailing {info['run_id']} ({info['run_dir']})")
    try:
        tail_run(info["run_dir"], poll_s=args.poll, once=args.once)
    except KeyboardInterrupt:
        return 130
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MA-Opt reproduction CLI")
    parser.add_argument("--fidelity", choices=("fast", "full"),
                        default="fast")
    parser.add_argument("--corner", default="tt",
                        choices=("tt", "ff", "ss", "fs", "sf"),
                        help="process corner for the circuit tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print task and parameter table")
    p.add_argument("task")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("optimize", help="run one optimizer on a task")
    p.add_argument("task")
    p.add_argument("--method", default="MA-Opt")
    p.add_argument("--sims", type=int, default=60)
    p.add_argument("--init", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", help="archive the run to this .npz file")
    p.add_argument("--max-retries", type=int, default=0, metavar="N",
                   help="retry each failed simulation up to N times "
                        "before quarantining the design (MA-Opt family)")
    p.add_argument("--sim-timeout", type=float, default=None, metavar="S",
                   help="per-simulation watchdog timeout in seconds "
                        "(pool path only; MA-Opt family)")
    p.add_argument("--inject-faults", type=float, default=0.0, metavar="P",
                   help="fault-injection drill: wrap the task so each "
                        "attempt fails with probability P (half "
                        "exceptions, half NaN metrics)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write optimizer checkpoints to this .npz path "
                        "(MA-Opt family)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="ROUNDS",
                   help="checkpoint every ROUNDS rounds (with --checkpoint; "
                        "a final checkpoint is always written)")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume a killed run from a checkpoint written by "
                        "--checkpoint (MA-Opt family)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="record this run durably under DIR (query with "
                        "'runs', follow with 'tail')")
    p.add_argument("--parallel", action="store_true",
                   help="evaluate actor batches over a process pool "
                        "(MA-Opt family; one worker per actor)")
    p.add_argument("--heartbeat", type=float, default=0.0, metavar="S",
                   help="emit heartbeat events every S seconds while a "
                        "pooled batch is in flight (MA-Opt family)")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="multi-method comparison (Table II)")
    p.add_argument("task")
    p.add_argument("--methods", default="BO,DNN-Opt,MA-Opt1,MA-Opt2,MA-Opt")
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--sims", type=int, default=40)
    p.add_argument("--init", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="archive each completed (method, run) here and "
                        "skip already-archived cells on re-invocation")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="record every (method, run) cell as its own run "
                        "under DIR (query with 'runs')")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="assemble benchmarks/results into one markdown report")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("netlist", help="print a design's netlist")
    p.add_argument("task")
    p.add_argument("--point", type=float, default=0.5,
                   help="normalized coordinate used for every parameter")
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser(
        "lint", help="static analysis: ERC, config checks, codelint")
    p.add_argument("targets", nargs="*",
                   help="task names (ota/tia/ldo; lints the netlist at "
                        "--point) or SPICE deck files")
    p.add_argument("--point", type=float, default=0.5,
                   help="normalized coordinate for task-netlist targets")
    p.add_argument("--config", action="store_true",
                   help="cross-validate the tuned MAOptConfig "
                        "(with --task/--sims/--init when given)")
    p.add_argument("--task", default=None,
                   help="task whose design space --config checks against")
    p.add_argument("--sims", type=int, default=None,
                   help="simulation budget for --config cross-checks")
    p.add_argument("--init", type=int, default=None,
                   help="initial-set size for --config cross-checks")
    p.add_argument("--code", metavar="PATH", action="append", default=[],
                   help="run the repo-invariant AST linter over PATH "
                        "(file or directory; repeatable)")
    p.add_argument("--flow", action="store_true",
                   help="with --code: also run the flow-sensitive RNG "
                        "provenance pass (flow.rng.*)")
    p.add_argument("--all", action="store_true",
                   help="shorthand: enable every pass (--flow --shapes)")
    p.add_argument("--shapes", action="store_true",
                   help="check the paper's dimensional contracts "
                        "(critic 2d->m+1, actor d->d, N_es bound; "
                        "shape.* rules)")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="screen findings against this committed baseline "
                        "(only findings NOT in it affect the exit code)")
    p.add_argument("--update-baseline", action="store_true",
                   help="freeze the current findings into the baseline "
                        "file and exit 0 (ratchet update)")
    p.add_argument("--sarif-out", metavar="PATH", default=None,
                   help="also write findings as a SARIF 2.1.0 document "
                        "(GitHub code scanning)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text report or one JSON object per finding")
    p.add_argument("--select", action="append", default=[],
                   metavar="PREFIX",
                   help="keep only rules matching this id prefix "
                        "(repeatable, e.g. 'erc' or 'erc.no-dc-path')")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="PREFIX",
                   help="drop rules matching this id prefix (repeatable)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "bench", help="performance benchmarks: run/compare/list")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("run", help="run benchmarks and write a result file")
    b.add_argument("--filter", action="append", default=[],
                   metavar="PREFIX",
                   help="keep benchmarks matching this dotted-name prefix "
                        "(repeatable, e.g. 'micro' or 'micro.mna')")
    b.add_argument("--repeats", type=int, default=None,
                   help="override each benchmark's timed repeat count")
    b.add_argument("--warmup", type=int, default=None,
                   help="override each benchmark's warmup call count")
    b.add_argument("--seed", type=int, default=0,
                   help="base seed for benchmark input generation")
    b.add_argument("--out", metavar="PATH",
                   default="benchmarks/results/perf/latest.json",
                   help="result file to write (empty string to skip)")
    b.add_argument("--trajectory", metavar="PATH",
                   default="BENCH_core.json",
                   help="trajectory file to append a condensed entry to")
    b.add_argument("--no-trajectory", dest="trajectory",
                   action="store_const", const=None,
                   help="do not append to the trajectory file")
    b.add_argument("--profile", action="store_true",
                   help="collect cProfile hotspots per benchmark "
                        "(separate pass; timings stay unprofiled)")
    b.add_argument("--profile-top", type=int, default=10,
                   help="hotspot rows to keep with --profile")
    b.add_argument("--format", choices=("text", "json"), default="text",
                   help="text tables or the raw result document as JSON")
    _add_obs_flags(b)
    b.set_defaults(func=cmd_bench_run)

    b = bsub.add_parser(
        "compare", help="diff two result files; exit 1 on regression")
    b.add_argument("baseline", help="baseline result JSON")
    b.add_argument("current", help="current result JSON")
    b.add_argument("--threshold", type=_parse_threshold,
                   default=None, metavar="PERCENT",
                   help="allowed slowdown in percent (default 35)")
    b.add_argument("--threshold-for", action="append", default=[],
                   metavar="NAME=PERCENT",
                   help="per-benchmark threshold override (repeatable)")
    b.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0 anyway")
    b.add_argument("--format", choices=("text", "json"), default="text",
                   help="text table or one JSON object per row")
    b.set_defaults(func=cmd_bench_compare)

    b = bsub.add_parser("list", help="list registered benchmarks")
    b.add_argument("--filter", action="append", default=[],
                   metavar="PREFIX",
                   help="keep benchmarks matching this dotted-name prefix")
    b.add_argument("--format", choices=("text", "json"), default="text",
                   help="aligned text or one JSON object per benchmark")
    b.set_defaults(func=cmd_bench_list)

    p = sub.add_parser(
        "runs", help="query the durable run store (--store on "
                     "optimize/compare)")
    rsub = p.add_subparsers(dest="runs_command", required=True)

    r = rsub.add_parser("list", help="one line per stored run")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_list)

    r = rsub.add_parser("show", help="manifest, event counts and wall-time "
                                     "breakdown of one run")
    r.add_argument("run", help="run ID or unique ID prefix")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_show)

    r = rsub.add_parser("diff", help="compare two runs field by field")
    r.add_argument("a", help="first run ID or prefix")
    r.add_argument("b", help="second run ID or prefix")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_diff)

    r = rsub.add_parser(
        "export", help="render one run as json (full bundle), prom "
                       "(Prometheus text) or sarif (diagnostics)")
    r.add_argument("run", help="run ID or unique ID prefix")
    r.add_argument("--format", choices=("json", "prom", "sarif"),
                   default="json")
    r.add_argument("--output", metavar="PATH", default=None,
                   help="write here instead of stdout")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_export)

    p = sub.add_parser(
        "tail", help="follow a live run's event/metric stream")
    p.add_argument("run", help="run ID, unique ID prefix, or run directory")
    p.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root for ID lookup (default: runs)")
    p.add_argument("--poll", type=float, default=0.5, metavar="S",
                   help="poll interval in seconds (default: 0.5)")
    p.add_argument("--once", action="store_true",
                   help="render the current state once and exit")
    p.add_argument("--max-polls", type=int, default=None, metavar="N",
                   help="stop after N polls (default: follow until run_end)")
    p.add_argument("--stall-after", type=float, default=30.0, metavar="S",
                   help="flag a stall after S seconds without new data")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "serve", help="run the optimization job service on a local socket")
    p.add_argument("--root", default="serve", metavar="DIR",
                   help="service state directory: job records, run "
                        "store, checkpoints, endpoint file "
                        "(default: serve)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent optimization jobs (default: 2)")
    p.add_argument("--tenant-cap", type=int, default=2, metavar="N",
                   help="max running jobs per tenant (default: 2)")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="MA-family checkpoint cadence in rounds "
                        "(default: 1)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: 0 = OS-assigned, published "
                        "to <root>/server.json)")
    p.add_argument("--resume", action="store_true",
                   help="re-queue unfinished jobs from a previous "
                        "server on this root")
    p.add_argument("--drain", action="store_true",
                   help="on shutdown, wait for the queue to empty "
                        "instead of interrupting running jobs")
    p.add_argument("--max-seconds", type=float, default=None, metavar="S",
                   help="exit after S seconds (smoke/CI runs; default: "
                        "serve until interrupted)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit an optimization job to a running server")
    p.add_argument("task")
    p.add_argument("--method", default="MA-Opt")
    p.add_argument("--sims", type=int, default=60)
    p.add_argument("--init", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", choices=("high", "normal", "low"),
                   default="normal")
    p.add_argument("--tenant", default="default",
                   help="tenant name for the per-tenant concurrency cap")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock timeout for the job in seconds")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="MAOptConfig override (repeatable; values "
                        "parsed as JSON)")
    p.add_argument("--root", default="serve", metavar="DIR",
                   help="service root holding server.json "
                        "(default: serve)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes; exit 1 unless "
                        "it finished cleanly")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="query and control jobs on a "
                                    "running server")
    jsub = p.add_subparsers(dest="jobs_command", required=True)

    j = jsub.add_parser("list", help="one line per job")
    j.add_argument("--root", default="serve", metavar="DIR")
    j.add_argument("--tenant", default=None)
    j.add_argument("--state", default=None,
                   choices=("queued", "running", "finished", "failed",
                            "cancelled", "interrupted"))
    j.set_defaults(func=cmd_jobs_list)

    j = jsub.add_parser("status", help="current record of one job")
    j.add_argument("job_id")
    j.add_argument("--root", default="serve", metavar="DIR")
    j.add_argument("--json", action="store_true",
                   help="print the full job record as JSON")
    j.set_defaults(func=cmd_jobs_status)

    j = jsub.add_parser("result", help="record of a finished job "
                                       "(errors while unfinished)")
    j.add_argument("job_id")
    j.add_argument("--root", default="serve", metavar="DIR")
    j.add_argument("--json", action="store_true",
                   help="print the full job record as JSON")
    j.set_defaults(func=cmd_jobs_result)

    j = jsub.add_parser("cancel", help="cancel a queued or running job")
    j.add_argument("job_id")
    j.add_argument("--root", default="serve", metavar="DIR")
    j.add_argument("--json", action="store_true",
                   help="print the full job record as JSON")
    j.set_defaults(func=cmd_jobs_cancel)

    j = jsub.add_parser("tail", help="follow a job's live run stream")
    j.add_argument("job_id")
    j.add_argument("--root", default="serve", metavar="DIR")
    j.add_argument("--poll", type=float, default=0.5, metavar="S")
    j.add_argument("--once", action="store_true",
                   help="render the current state once and exit")
    j.set_defaults(func=cmd_jobs_tail)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
