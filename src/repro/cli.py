"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``describe <task>``   print the task's target, constraints and Table of
                      parameter ranges.
``optimize <task>``   run one optimizer (default MA-Opt) on the task and
                      report the best design.
``compare <task>``    run the paper's multi-method comparison and print the
                      Table II/IV/VI-style summary plus the Fig. 5 panel.
``netlist <task>``    print a design's SPICE deck (mid-space by default),
                      with the ``.model`` cards of its process corner.
``lint <tasks>``      static analysis: ERC over task netlists,
                      ``--config`` cross-validation, ``--code`` AST lint
                      (``--flow`` adds RNG provenance).  Exit 1 on
                      error-severity findings.
``runs <cmd>``        query the durable run store (``--store`` on
                      optimize/compare): ``list``, ``show``, ``diff``,
                      ``export`` (one JSON bundle per run).
``tail <run>``        follow a live run's event stream (poll +
                      offset resume; works on finished runs with
                      ``--once``).

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
    """Telemetry bundle for the CLI's --log-level/--trace-out/--events-out
    flags; returns None when no flag is set (no-op fast path)."""
    from repro.obs import RunLogger, Telemetry, Tracer, configure_logging

    if not (args.log_level or args.trace_out or args.events_out):
        return None
    # Fail before the run, not after: --trace-out only writes at export
    # time, so a bad path would otherwise waste the whole run.
    for path in (args.trace_out, args.events_out):
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
        run_logger=run_logger,
    )


def _finish_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Export the sinks selected on the command line.

    ``telemetry`` may be the bundle built by :func:`_build_telemetry` or a
    run-store recorder's bundle (which always carries both channels), so
    each export is gated on its flag actually being set.
    """
    if telemetry is None:
        return
    if telemetry.tracer is not None and args.trace_out:
        n = telemetry.tracer.export_jsonl(args.trace_out)
        print(f"wrote {n} spans to {args.trace_out}")
        from repro.obs.report import report_from_tracer

        print(report_from_tracer(telemetry.tracer))
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
    p.add_argument("--events-out", metavar="PATH", default=None,
                   help="write one JSONL run event per evaluation/round")


def _usage_error(message: str) -> None:
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_budget(args: argparse.Namespace) -> None:
    """``--sims`` and ``--init`` each need at least one simulation."""
    for flag, value in (("--sims", args.sims), ("--init", args.init)):
        if value < 1:
            _usage_error(f"{flag} must be >= 1, got {value}")


def _check_methods(flag: str, methods: list[str]) -> None:
    """Every method name is one of ``METHOD_NAMES``, and there is one."""
    from repro.experiments import METHOD_NAMES

    if not methods:
        _usage_error(f"{flag} names no method; options: "
                     f"{','.join(METHOD_NAMES)}")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        _usage_error(f"{flag}: unknown method {unknown[0]!r}; options: "
                     f"{','.join(METHOD_NAMES)}")


def _check_checkpoint_flags(args: argparse.Namespace) -> None:
    """Refuse a checkpoint plan the run would refuse, before the initial
    set is simulated.  ``--checkpoint-every`` needs a path:
    ``--checkpoint``, or the one a ``--resume`` checkpoint carries."""
    from repro.core.driver import check_checkpointing

    every = args.checkpoint_every
    if every is not None and every < 0:
        _usage_error(f"--checkpoint-every must be >= 0, got {every}")
    if every is not None and not (args.checkpoint or args.resume):
        _usage_error("--checkpoint-every needs --checkpoint PATH "
                     "(or --resume)")
    if args.checkpoint:
        try:
            check_checkpointing(args.checkpoint, every or 0)
        except ValueError as exc:
            _usage_error(str(exc))


def _restore(args: argparse.Namespace, task, telemetry):
    """Restore ``--resume``'s checkpoint with the class of ``--method``;
    a checkpoint of another method exits 2."""
    from repro.experiments.runner import optimizer_class

    try:
        opt = optimizer_class(args.method).restore(args.resume, task,
                                                   telemetry=telemetry)
    except (OSError, ValueError) as exc:
        _usage_error(f"--resume {args.resume}: {exc}")
    if opt.method_name != args.method:
        _usage_error(f"--resume {args.resume}: checkpoint is for method "
                     f"{opt.method_name!r}, not {args.method!r}")
    return opt


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.experiments import make_initial_set, run_method

    _check_budget(args)
    _check_methods("--method", [args.method])
    _check_checkpoint_flags(args)
    task = _make_task(args.task, args.fidelity, args.corner)
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
    try:
        if args.resume:
            opt = _restore(args, task, telemetry)
            print(f"{args.method} on {task.name!r}: resumed from "
                  f"{args.resume} at {len(opt.records)} sims, "
                  f"running to {args.sims}")
            res = opt.run(n_sims=args.sims,
                          checkpoint_path=args.checkpoint,
                          checkpoint_every=args.checkpoint_every)
        else:
            print(f"{args.method} on {task.name!r}: "
                  f"{args.init} init + {args.sims} sims (seed {args.seed})")
            x, f = make_initial_set(task, args.init, seed=args.seed,
                                    telemetry=telemetry)
            res = run_method(args.method, task, args.sims, x, f,
                             seed=args.seed, maopt_overrides=_MAOPT_TUNED,
                             telemetry=telemetry,
                             checkpoint_path=args.checkpoint,
                             checkpoint_every=args.checkpoint_every)
    except KeyboardInterrupt:
        if recorder is not None:
            recorder.finalize(status="interrupted")
        raise
    except (Exception, SystemExit) as exc:
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
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import comparison_table, fom_curves, run_comparison
    from repro.experiments.figures import render_ascii

    _check_budget(args)
    if args.runs < 1:
        _usage_error(f"--runs must be >= 1, got {args.runs}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    _check_methods("--methods", methods)
    task = _make_task(args.task, args.fidelity, args.corner)
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


def _check_point(point: float) -> None:
    """``--point`` is a normalized coordinate: finite and in [0, 1]."""
    if not 0.0 <= point <= 1.0:  # also rejects nan
        print(f"repro: error: --point must be a normalized coordinate in "
              f"[0, 1], got {point!r}", file=sys.stderr)
        raise SystemExit(2)


def cmd_netlist(args: argparse.Namespace) -> int:
    _check_point(args.point)
    task = _make_task(args.task, args.fidelity, args.corner)
    build_netlist = getattr(task, "build_netlist", None)
    if build_netlist is None:
        raise SystemExit(f"no netlist builder for task {args.task!r}")
    params = task.space.denormalize(np.full(task.d, args.point))
    print(build_netlist(params).to_spice())
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

    from repro.obs.store import RunStore, event_counts

    try:
        record = RunStore(args.store).load(args.run)
    except KeyError as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    print(_json.dumps(record.manifest, indent=2, sort_keys=True))
    counts = event_counts(record.events())
    if counts:
        print("\nevents:")
        for key, n in counts.items():
            print(f"  {key:<28} {n}")
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
    if not diff["fields"] and not diff["events"]:
        print("  (no differences)")
        return 0
    for name, entry in diff["fields"].items():
        delta = (f"  (delta {entry['delta']:+g})" if "delta" in entry
                 else "")
        print(f"  {name}: {entry['a']} -> {entry['b']}{delta}")
    for key, entry in diff["events"].items():
        print(f"  events {key}: {entry['a']} -> {entry['b']} "
              f"(delta {entry['delta']:+d})")
    return 0


def cmd_runs_export(args: argparse.Namespace) -> int:
    from repro.obs.store import RunStore, export_run

    try:
        record = RunStore(args.store).load(args.run)
        text = export_run(record)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"repro: error: cannot write {args.output}: "
                             f"{exc.strerror or exc}")
        print(f"wrote export of {record.run_id} to {args.output}")
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

    groups: list[tuple[str, list]] = []
    for target in args.targets:
        try:
            task = _make_task(target, args.fidelity, args.corner)
        except SystemExit:
            print(f"repro: error: unknown lint target {target!r} "
                  f"(not a task name)", file=sys.stderr)
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
    return groups


def _unknown_prefixes(prefixes) -> list[str]:
    """``--select/--ignore`` values matching no registered rule id."""
    from repro.analysis.codelint import CODE_RULES
    from repro.analysis.configlint import CFG_RULES
    from repro.analysis.erc import ERC_RULES
    from repro.analysis.rngflow import RNG_RULES

    known = [rule.id for ruleset in (ERC_RULES, CFG_RULES, CODE_RULES,
                                     RNG_RULES) for rule in ruleset]
    known.append("code.syntax")
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

    if not args.targets and not args.config and not args.code:
        print("repro: error: nothing to lint — give task names, --config "
              "or --code PATH", file=sys.stderr)
        return 2
    _check_point(args.point)
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
    return exit_code(everything)


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
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write optimizer checkpoints to this .npz path; "
                        "the final one is the run's archive (read it with "
                        "repro.core.driver.load_result)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="ROUNDS",
                   help="checkpoint every ROUNDS rounds (with --checkpoint; "
                        "a final checkpoint is always written)")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume a killed run of --method from a "
                        "checkpoint written by --checkpoint; the resumed run "
                        "keeps checkpointing as the killed one did unless "
                        "--checkpoint/--checkpoint-every say otherwise")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="record this run durably under DIR (query with "
                        "'runs', follow with 'tail')")
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
                   help="checkpoint each (method, run) cell here; on "
                        "re-invocation finished cells are loaded and "
                        "in-flight ones resume")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="record every (method, run) cell as its own run "
                        "under DIR (query with 'runs')")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="assemble benchmarks/results into one markdown report")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("netlist", help="print a design's SPICE deck")
    p.add_argument("task")
    p.add_argument("--point", type=float, default=0.5,
                   help="normalized coordinate used for every parameter")
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser(
        "lint", help="static analysis: ERC, config checks, codelint")
    p.add_argument("targets", nargs="*",
                   help="task names (ota/tia/ldo; lints the netlist at "
                        "--point)")
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

    r = rsub.add_parser("diff", help="compare two runs field by field "
                                     "and by event counts")
    r.add_argument("a", help="first run ID or prefix")
    r.add_argument("b", help="second run ID or prefix")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_diff)

    r = rsub.add_parser(
        "export", help="render one run as a single JSON bundle "
                       "(manifest, events, trace)")
    r.add_argument("run", help="run ID or unique ID prefix")
    r.add_argument("--output", metavar="PATH", default=None,
                   help="write here instead of stdout")
    r.add_argument("--store", metavar="DIR", default="runs",
                   help="run-store root (default: runs)")
    r.set_defaults(func=cmd_runs_export)

    p = sub.add_parser(
        "tail", help="follow a live run's event stream")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
