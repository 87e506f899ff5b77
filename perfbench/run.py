#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload tia-maopt --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
passes untraced, then traced, and reports the per-layer metrics.  The
environment and every check go to stdout, whose last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: Fresh interpreters timed for ``setup_s`` in each end-to-end run.
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported.

    With two threads on two cores ota-maopt burned 10.9-12.6 CPU-s instead
    of 8.8-9.1 and its wall time spread more; the thread count also moves
    optimizer paths through float reordering.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe_environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(task_class: str) -> float:
    """Seconds from interpreter start to a ready task in a fresh process:
    the repro imports and task construction every CLI run pays."""
    code = ("from repro.experiments import make_initial_set, run_method\n"
            "from repro.experiments.config import TUNED_MAOPT\n"
            f"from repro.circuits import {task_class}\n"
            f"{task_class}(fidelity='fast')\n"
            "print('ready', flush=True)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {task_class} failed "
                           f"(exit {proc.returncode})")
    return elapsed


class Checks:
    """Every checked operation of a run, with its problems (none = ok)."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.rows.append({"label": label, "problems": list(problems)})
        print(f"check {label}: {'; '.join(problems) or 'ok'}", flush=True)

    def guarded(self, label: str, fn):
        """``fn()``, or None after recording an exception as a failure."""
        try:
            return fn()
        except Exception as exc:
            traceback.print_exc()
            self.add(label, [f"raised {type(exc).__name__}: {exc}"])
            return None

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if row["problems"])


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import layers, workloads
    from perfbench.tracing import SpanTracer, installed_wrappers

    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    environment = describe_environment()
    print("environment", json.dumps(environment, sort_keys=True), flush=True)
    checks = Checks()
    task = wl.make_task()
    reference = workloads.load_reference()
    measured = checks.guarded("reference probe",
                              lambda: workloads.probe(wl, task))
    if measured is not None:
        checks.add("reference probe", workloads.reference_problems(
            measured, reference["probes"][wl.name]))
    ref_run = reference["runs"].get(wl.name, {}).get(str(args.seed))
    n_passes = wl.passes(args.seconds)

    def run_passes(tag: str, tracer=None) -> list:
        done = []
        for i in range(n_passes):
            def one(i=i):
                if tracer is None:
                    return workloads.run_pass(wl, task, args.seed, i)
                with tracer.span("bench.pass"):
                    return workloads.run_pass(wl, task, args.seed, i)

            res = checks.guarded(f"{tag} pass {i}", one)
            if res is not None:
                checks.add(f"{tag} pass {i}", res.problems)
                ref = ("" if i or ref_run is None else
                       f" (reference {ref_run['best_fom']:.6g}, "
                       f"{ref_run['success']})")
                print(f"{tag} pass {i}: {res.wall_s:.3f} s ({res.cpu_s:.3f} "
                      f"CPU-s), best_fom, success {res.best_fom:.6g}, "
                      f"{res.success}{ref}", flush=True)
            done.append(res)
        return done

    untraced = run_passes("untraced")
    walls = [r.wall_s for r in untraced if r is not None]
    if not walls:
        print("perfbench: every pass raised; no metrics", file=sys.stderr)
        return 1
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": n_passes,
              "environment": environment, "untraced_pass_s": walls}
    if args.trace == 0:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_seconds(workloads.TASK_CLASSES[wl.task])
                  for _ in range(SETUP_PROBES)]
        record["setup_s"] = setups
        metrics = {"run_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        tracer = SpanTracer()
        layers.install(tracer)
        try:
            traced = run_passes("traced", tracer)
        finally:
            tracer.uninstall()
        checks.add("wrappers removed", [f"still wrapped: {name}"
                                        for name in installed_wrappers()])
        pairs = []
        for i, (u, t) in enumerate(zip(untraced, traced)):
            if u is not None and t is not None:
                checks.add(f"traced pass {i} reproduces untraced",
                           workloads.same_outputs(u, t))
                pairs.append((u.wall_s, t.wall_s))
        if not pairs:
            print("perfbench: every traced pass raised; no metrics",
                  file=sys.stderr)
            return 1
        untraced_s = sum(u for u, _ in pairs)
        traced_s = sum(t for _, t in pairs)
        metrics = layers.metrics(tracer, wl.dominant, passes=len(pairs),
                                 pass_s=traced_s, n_metrics=task.m + 1)
        metrics["trace.overhead_share"] = (
            (traced_s - untraced_s) / untraced_s, "ratio")
        record["traced_pass_s"] = [t for _, t in pairs]
        record["self_s_per_pass"] = {
            name: s / len(pairs) for name, s in tracer.self_times().items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}.trace.json.gz")
    result = {"correct": checks.failed == 0, "attempted": len(checks.rows),
              "failed": checks.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update(checks=checks.rows, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}.result.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
