"""Job specs and the async multi-tenant :class:`JobManager`.

A **job** is one optimization run described by a versioned JSON document
(schema ``repro.serve/job``): task, method, budget, seed, plus service
metadata (priority lane, tenant, optional wall-clock timeout, MA-family
config overrides).  :func:`validate_job` statically checks a spec the
same way the repo lints everything else — it returns
:class:`~repro.analysis.diagnostics.Diagnostic` findings, composing the
job-level rules (``job.*``) with the existing optimizer config
cross-validation (``cfg.*`` from :mod:`repro.analysis.configlint`), so a
spec that would waste its simulation budget is rejected *at submit
time*, before it ever reaches the queue.

The :class:`JobManager` is the service core: a bounded scheduler
(strict priority lanes, FIFO within a lane, per-tenant running-job caps)
feeding a pool of worker threads.  Every accepted job gets

* a durable **job record** (``repro.serve/job-record`` JSON under
  ``<root>/jobs/``, written atomically on every state change), and
* a durable **run record** per attempt (an
  :class:`~repro.obs.store.RunStore` directory under ``<root>/runs/`` —
  the same layout ``ma-opt runs`` / ``ma-opt tail`` already read).

MA-family jobs run with a cooperative ``should_stop`` hook and periodic
checkpoints under ``<root>/ckpt/``, so ``cancel`` takes effect between
rounds and a server shutdown parks the job as *interrupted*;
:meth:`JobManager.resume` re-queues queued/interrupted/crashed jobs and
continues them bit-exactly from their last checkpoint in a fresh attempt
run directory.  Baseline jobs (BO/Random/PSO/DE/PPO) run to completion —
they are cancellable only while queued.

Scheduling policy lives in the pure function :func:`select_next` so it
is unit-testable (and benchmarked as ``micro.serve.dispatch``) without
any threads.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.configlint import check_config
from repro.analysis.diagnostics import (Diagnostic, RuleSet, Severity,
                                        has_errors)
from repro.core.config import (PRIORITY_LANES, MAOptConfig, ServeConfig,
                               VariantPreset)
from repro.resilience.checkpoint import atomic_write_json

SCHEMA_NAME = "repro.serve/job"
SCHEMA_VERSION = 1
RECORD_SCHEMA_NAME = "repro.serve/job-record"

#: Tasks a job may name (mirrors the CLI task factory).
TASKS = ("ota", "tia", "ldo", "sphere")

#: MA-family methods (checkpointable, cancellable mid-run) and their
#: presets; every other METHOD_NAMES entry is a blocking baseline.
MA_PRESETS = {
    "DNN-Opt": VariantPreset.DNN_OPT,
    "MA-Opt1": VariantPreset.MA_OPT_1,
    "MA-Opt2": VariantPreset.MA_OPT_2,
    "MA-Opt": VariantPreset.MA_OPT,
}

JOB_STATES = ("queued", "running", "finished", "failed", "cancelled",
              "interrupted")
#: States a job never leaves (``interrupted`` is *not* terminal: resume
#: re-queues it).
TERMINAL_JOB_STATES = ("finished", "failed", "cancelled")

#: The declared lifecycle, as ``(from, to)`` edges.  Terminal states have
#: no outgoing edges ("no resurrection"), and ``running -> queued`` /
#: ``interrupted -> queued`` are the resume paths (crashed mid-run /
#: parked by a shutdown).  ``tests/serve/test_contract.py`` checks the
#: table: edges stay inside ``JOB_STATES``, none leaves a terminal state,
#: and every state is reachable from ``queued``.
JOB_TRANSITIONS = (
    ("queued", "running"),
    ("queued", "cancelled"),
    ("running", "finished"),
    ("running", "failed"),
    ("running", "cancelled"),
    ("running", "interrupted"),
    ("running", "queued"),
    ("interrupted", "queued"),
)

#: Tenant names must stay a single safe path component: they key the
#: per-tenant concurrency cap and run-record metadata today and a
#: per-tenant directory layout tomorrow, so separators and traversal
#: (``..``) are rejected at validation time (pinned by
#: ``tests/serve/test_jobs.py::test_bad_tenant``).
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: ``should_stop`` reason -> final job state.
_REASON_STATE = {"cancelled": "cancelled", "shutdown": "interrupted",
                 "timeout": "failed"}

JOB_RULES = RuleSet()
JOB_RULES.add("job.schema", Severity.ERROR,
              "job document must be a repro.serve/job v1 object")
JOB_RULES.add("job.task", Severity.ERROR,
              "job must name a known task")
JOB_RULES.add("job.method", Severity.ERROR,
              "job must name a known optimization method")
JOB_RULES.add("job.budget", Severity.ERROR,
              "simulation budget and initial-sample count must be "
              "positive integers")
JOB_RULES.add("job.priority", Severity.ERROR,
              "priority must be one of the service's lanes")
JOB_RULES.add("job.tenant", Severity.ERROR,
              "tenant must be a safe single-path-component name (it "
              "keys the per-tenant concurrency cap and directory "
              "layout)")
JOB_RULES.add("job.timeout", Severity.ERROR,
              "timeout must be a positive number of seconds (or null)")
JOB_RULES.add("job.overrides", Severity.ERROR,
              "config overrides must be known MAOptConfig fields on an "
              "MA-family method")


def canonical_spec(doc: Mapping[str, Any]) -> dict:
    """Normalized spec: defaults filled, keys ordered, nothing validated.

    The canonical form is what gets hashed (:func:`spec_hash`), stored in
    job records, and fed to :func:`validate_job` — two submissions that
    differ only in key order or omitted defaults are the same spec.
    """
    doc = dict(doc)
    return {
        "schema": doc.get("schema", SCHEMA_NAME),
        "schema_version": doc.get("schema_version", SCHEMA_VERSION),
        "task": doc.get("task"),
        "method": doc.get("method", "MA-Opt"),
        "fidelity": doc.get("fidelity", "fast"),
        "n_sims": doc.get("n_sims", 60),
        "n_init": doc.get("n_init", 40),
        "seed": doc.get("seed", 0),
        "priority": doc.get("priority", "normal"),
        "tenant": doc.get("tenant", "default"),
        "timeout_s": doc.get("timeout_s"),
        "overrides": dict(doc.get("overrides") or {}),
    }


def spec_hash(spec: Mapping[str, Any]) -> str:
    """Deterministic content hash of a canonical spec (hex sha256)."""
    blob = json.dumps(canonical_spec(spec), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_config(spec: Mapping[str, Any]) -> MAOptConfig:
    """The MAOptConfig an MA-family spec resolves to.

    Preset for the method, the repo's calibrated ``TUNED_MAOPT`` values,
    then the spec's explicit overrides — the same layering the CLI's
    ``optimize`` command applies, so a job reproduces the interactive
    run.
    """
    from repro.experiments.config import TUNED_MAOPT

    merged = dict(TUNED_MAOPT)
    merged.update(spec.get("overrides") or {})
    seed = merged.pop("seed", spec.get("seed", 0))
    return MAOptConfig.from_preset(MA_PRESETS[spec["method"]],
                                   seed=seed, **merged)


def validate_job(doc: Any) -> list[Diagnostic]:
    """All static problems with a job document (empty list = accept).

    Structural/service checks emit ``job.*`` diagnostics; for MA-family
    methods the resolved config is additionally cross-validated with
    :func:`repro.analysis.configlint.check_config` against the job's own
    budget, so ``cfg.*`` findings (elite set larger than the budget,
    near-sampling cadence that never fires, ...) ride along.
    """
    diags: list[Diagnostic] = []
    if not isinstance(doc, Mapping):
        return [JOB_RULES.diag(
            "job.schema", f"job is {type(doc).__name__}, expected an "
            f"object", fix="submit a JSON object")]
    spec = canonical_spec(doc)
    if (spec["schema"] != SCHEMA_NAME
            or spec["schema_version"] != SCHEMA_VERSION):
        diags.append(JOB_RULES.diag(
            "job.schema",
            f"schema is {spec['schema']!r} v{spec['schema_version']!r}; "
            f"this server reads {SCHEMA_NAME!r} v{SCHEMA_VERSION}",
            location="schema"))
    if spec["task"] not in TASKS:
        diags.append(JOB_RULES.diag(
            "job.task", f"unknown task {spec['task']!r}",
            location="task", fix=f"use one of {', '.join(TASKS)}"))
    from repro.experiments.runner import METHOD_NAMES

    if spec["method"] not in METHOD_NAMES:
        diags.append(JOB_RULES.diag(
            "job.method", f"unknown method {spec['method']!r}",
            location="method",
            fix=f"use one of {', '.join(METHOD_NAMES)}"))
    for key in ("n_sims", "n_init"):
        value = spec[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value <= 0:
            diags.append(JOB_RULES.diag(
                "job.budget", f"{key}={value!r} is not a positive "
                f"integer", location=key))
    if spec["priority"] not in PRIORITY_LANES:
        diags.append(JOB_RULES.diag(
            "job.priority", f"unknown priority {spec['priority']!r}",
            location="priority",
            fix=f"use one of {', '.join(PRIORITY_LANES)}"))
    tenant = spec["tenant"]
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        diags.append(JOB_RULES.diag(
            "job.tenant", f"tenant {tenant!r} is not a safe name "
            f"(want a letter/digit then [A-Za-z0-9._-], at most 64 "
            f"chars — it becomes a path component)",
            location="tenant", fix="use a plain identifier-like tenant "
            "name"))
    timeout = spec["timeout_s"]
    if timeout is not None and (isinstance(timeout, bool)
                                or not isinstance(timeout, (int, float))
                                or not timeout > 0):
        diags.append(JOB_RULES.diag(
            "job.timeout", f"timeout_s={timeout!r} is not a positive "
            f"number of seconds", location="timeout_s"))
    diags.extend(_check_overrides(spec))
    return diags


def _check_overrides(spec: dict) -> list[Diagnostic]:
    """``job.overrides`` + budget-aware ``cfg.*`` checks for a spec whose
    structural fields already parsed."""
    diags: list[Diagnostic] = []
    overrides = spec["overrides"]
    if not isinstance(overrides, Mapping):
        return [JOB_RULES.diag(
            "job.overrides", f"overrides is "
            f"{type(overrides).__name__}, expected an object",
            location="overrides")]
    if spec["method"] not in MA_PRESETS:
        if overrides:
            diags.append(JOB_RULES.diag(
                "job.overrides",
                f"overrides only apply to the MA-Opt family; "
                f"{spec['method']!r} ignores them",
                location="overrides", fix="drop the overrides or pick "
                "an MA-family method"))
        return diags
    known = set(MAOptConfig.__dataclass_fields__)
    for key in overrides:
        if key == "resilience":
            diags.append(JOB_RULES.diag(
                "job.overrides", "the job service owns checkpointing; "
                "resilience cannot be overridden per job",
                location="overrides.resilience"))
        elif key not in known:
            diags.append(JOB_RULES.diag(
                "job.overrides", f"unknown MAOptConfig field {key!r}",
                location=f"overrides.{key}"))
    if has_errors(diags):
        return diags
    try:
        config = build_config(spec)
    except (TypeError, ValueError) as exc:
        diags.append(JOB_RULES.diag(
            "job.overrides", f"overrides do not form a valid config: "
            f"{exc}", location="overrides"))
        return diags
    if isinstance(spec["n_sims"], int) and isinstance(spec["n_init"], int):
        diags.extend(check_config(config, n_sims=spec["n_sims"],
                                  n_init=spec["n_init"]))
    return diags


class JobValidationError(ValueError):
    """Raised by :meth:`JobManager.submit` on error-severity findings;
    the full diagnostic list rides on :attr:`diagnostics`."""

    def __init__(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics
                  if d.severity >= Severity.ERROR]
        super().__init__("job spec failed validation:\n  "
                         + "\n  ".join(d.render() for d in errors))


@dataclass
class Job:
    """Runtime state of one accepted job (the manager's unit of work)."""

    job_id: str
    spec: dict
    state: str = "queued"
    attempt: int = 0
    run_ids: list[str] = field(default_factory=list)
    error: str | None = None
    summary: dict = field(default_factory=dict)
    warnings: list[dict] = field(default_factory=list)
    submitted_unix: float = 0.0
    updated_unix: float = 0.0
    cancel: threading.Event = field(default_factory=threading.Event)

    @property
    def tenant(self) -> str:
        return str(self.spec.get("tenant", "default"))

    @property
    def priority(self) -> str:
        return str(self.spec.get("priority", "normal"))

    def record(self) -> dict:
        """The durable ``repro.serve/job-record`` document (also the
        public view every protocol reply carries)."""
        return {
            "schema": RECORD_SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "attempt": self.attempt,
            "spec": dict(self.spec),
            "run_ids": list(self.run_ids),
            "error": self.error,
            "summary": dict(self.summary),
            "warnings": list(self.warnings),
            "submitted_unix": self.submitted_unix,
            "updated_unix": self.updated_unix,
        }

    @classmethod
    def from_record(cls, doc: Mapping[str, Any]) -> "Job":
        """Rebuild runtime state from a persisted record."""
        if doc.get("schema") != RECORD_SCHEMA_NAME:
            raise ValueError(f"not a {RECORD_SCHEMA_NAME} document: "
                             f"{doc.get('schema')!r}")
        return cls(
            job_id=str(doc["job_id"]),
            spec=canonical_spec(doc.get("spec", {})),
            state=str(doc.get("state", "queued")),
            attempt=int(doc.get("attempt", 0)),
            run_ids=list(doc.get("run_ids", [])),
            error=doc.get("error"),
            summary=dict(doc.get("summary", {})),
            warnings=list(doc.get("warnings", [])),
            submitted_unix=float(doc.get("submitted_unix", 0.0)),
            updated_unix=float(doc.get("updated_unix", 0.0)),
        )


def select_next(queued: Sequence[Job],
                running_by_tenant: Mapping[str, int],
                tenant_cap: int) -> Job | None:
    """The scheduling policy, as a pure function.

    Strict priority lanes (every runnable ``high`` job beats every
    ``normal`` one), FIFO within a lane (``queued`` is in submission
    order), and a job is runnable only while its tenant holds fewer than
    ``tenant_cap`` running jobs.  Returns the job to start, or None when
    nothing is runnable.
    """
    for lane in PRIORITY_LANES:
        for job in queued:
            if job.priority != lane:
                continue
            if running_by_tenant.get(job.tenant, 0) >= tenant_cap:
                continue
            return job
    return None


def default_task_factory(spec: Mapping[str, Any]) -> Any:
    """Build the task a spec names (same factory the CLI uses)."""
    name = spec["task"]
    if name == "sphere":
        from repro.core.synthetic import ConstrainedSphere

        return ConstrainedSphere(d=12, seed=3)
    from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA

    factories = {"ota": TwoStageOTA, "tia": ThreeStageTIA,
                 "ldo": LDORegulator}
    if name not in factories:
        raise ValueError(f"unknown task {name!r}")
    return factories[name](fidelity=spec.get("fidelity", "fast"))


def run_job(manager: "JobManager", job: Job, recorder: Any,
            should_stop: Callable[[], str]) -> tuple[Any, str]:
    """Default job runner: one real optimization run.

    Returns ``(result, stop_reason)`` where ``stop_reason`` is the empty
    string for a run that spent its whole budget.  MA-family methods run
    :class:`~repro.core.ma_opt.MAOptimizer` directly with the service's
    ``should_stop`` hook and checkpoint cadence (and restore from the
    job's checkpoint on attempts after the first); baselines run the
    shared-initial-set protocol to completion.
    """
    spec = job.spec
    task = manager.make_task(spec)
    telemetry = recorder.telemetry
    if spec["method"] in MA_PRESETS:
        from repro.core.ma_opt import MAOptimizer

        ckpt = manager.checkpoint_path(job.job_id)
        if job.attempt > 1 and ckpt.exists():
            opt = MAOptimizer.restore(ckpt, task, telemetry=telemetry)
        else:
            opt = MAOptimizer(task, build_config(spec),
                              telemetry=telemetry)
        result = opt.run(
            n_sims=spec["n_sims"], n_init=spec["n_init"],
            method_name=spec["method"], checkpoint_path=str(ckpt),
            checkpoint_every=manager.config.checkpoint_every,
            should_stop=should_stop)
        return result, str(result.meta.get("stopped") or "")
    from repro.experiments.runner import make_initial_set, run_method

    x_init, f_init = make_initial_set(task, spec["n_init"],
                                      seed=spec["seed"],
                                      telemetry=telemetry)
    reason = should_stop()
    if reason:  # baselines are not stoppable mid-run; bail between phases
        return None, reason
    result = run_method(spec["method"], task, spec["n_sims"], x_init,
                        f_init, seed=spec["seed"], telemetry=telemetry)
    return result, ""


def _summarize(result: Any) -> dict:
    """Job-record summary of an OptimizationResult (JSON-safe scalars)."""
    if result is None:
        return {}
    summary = {
        "best_fom": float(result.best_fom),
        "success": bool(result.success),
        "n_sims": len(result.records),
        "wall_time_s": float(result.wall_time_s),
    }
    stopped = result.meta.get("stopped") if hasattr(result, "meta") else None
    if stopped:
        summary["stopped"] = stopped
    return summary


class JobManager:
    """Bounded multi-tenant scheduler running jobs on worker threads.

    ``root`` is the service's durable state directory (job records, run
    store, checkpoints — see the module docstring).  ``runner`` and
    ``task_factory`` are injection seams: tests replace the runner with
    a stub to exercise scheduling/cancel/resume without real
    optimization runs.

    Thread model: ``config.max_workers`` worker threads (named
    ``serve-worker-<i>``, daemon, joined on :meth:`close`) plus any
    number of protocol threads calling the public methods.  All shared
    state is guarded by one condition variable; job execution happens
    outside the lock, with cooperative stop via per-job cancel events
    and the manager-wide shutdown event.
    """

    def __init__(self, root: str | pathlib.Path,
                 config: ServeConfig | None = None,
                 task_factory: Callable[[Mapping[str, Any]], Any] | None
                 = None,
                 runner: Callable[..., tuple[Any, str]] | None = None
                 ) -> None:
        from repro.obs.store import RunStore

        self.root = pathlib.Path(root)
        self.config = config or ServeConfig()
        self.jobs_dir = self.root / "jobs"
        self.ckpt_dir = self.root / "ckpt"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.store = RunStore(self.root / "runs")
        self._task_factory = task_factory or default_task_factory
        self._runner = runner or run_job
        self._stop = threading.Event()      # set once, at close()
        self._cv = threading.Condition()    # guards the five fields below
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._running: dict[str, str] = {}
        self._seq = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(self.config.max_workers)
        ]
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "JobManager":
        """Start the worker pool (idempotent)."""
        if not self._started:
            self._started = True
            for thread in self._threads:
                thread.start()
        return self

    def __enter__(self) -> "JobManager":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self, drain: bool = False,
              timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` first waits (up to ``timeout``, default
        ``config.drain_timeout_s``) for the queue to empty; otherwise
        running MA-family jobs are stopped at their next round boundary
        and parked as *interrupted* (checkpoint on disk, queued jobs
        untouched) — exactly the state :meth:`resume` continues from.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        if drain:
            self.wait_idle(timeout=timeout)
        self._stop.set()
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        if self._started:
            for thread in self._threads:
                thread.join(timeout=timeout)

    def resume(self) -> list[str]:
        """Reload persisted jobs; re-queue every unfinished one.

        Terminal jobs load for listing only.  Jobs persisted as
        ``queued``, ``interrupted`` (clean shutdown) or ``running`` (the
        previous process died mid-run) go back on the queue in job-ID
        order; their next attempt restores from the job checkpoint when
        one exists.  Returns the re-queued job IDs.
        """
        requeued: list[str] = []
        records = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            records.append(json.loads(path.read_text(encoding="utf-8")))
        with self._cv:
            for doc in records:
                job = Job.from_record(doc)
                if job.job_id in self._jobs:
                    continue
                self._jobs[job.job_id] = job
                seq = _job_seq(job.job_id)
                if seq > self._seq:
                    self._seq = seq
                if job.state in TERMINAL_JOB_STATES:
                    continue
                job.state = "queued"
                job.updated_unix = time.time()
                self._order.append(job.job_id)
                requeued.append(job.job_id)
            self._cv.notify_all()
        for job_id in requeued:
            self._persist(self._get(job_id))
        return requeued

    # -- submission / queries ------------------------------------------------
    def submit(self, doc: Mapping[str, Any]) -> dict:
        """Validate, persist and enqueue a job; returns its record.

        Error-severity findings raise :class:`JobValidationError`;
        warnings are accepted but stored on the record (and echoed in
        the protocol reply).  Job IDs are deterministic:
        ``job-<seq:06d>-<spec-hash[:8]>``, so the same submission
        sequence on a fresh root yields the same IDs.
        """
        spec = canonical_spec(doc)
        diags = validate_job(spec)
        if has_errors(diags):
            raise JobValidationError(diags)
        now = time.time()
        with self._cv:
            if self._shutdown:
                raise RuntimeError("job manager is shutting down")
            self._seq += 1
            job_id = f"job-{self._seq:06d}-{spec_hash(spec)[:8]}"
            job = Job(job_id=job_id, spec=spec, submitted_unix=now,
                      updated_unix=now,
                      warnings=[d.to_dict() for d in diags])
            self._jobs[job_id] = job
        # Persist before publishing to the queue: the record is durable
        # before any worker can claim (and re-persist) the job.
        self._persist(job)
        with self._cv:
            self._order.append(job_id)
            self._cv.notify_all()
        return self.status(job_id)

    def status(self, job_id: str) -> dict:
        """Current record of one job (raises ``KeyError`` when unknown)."""
        job = self._get(job_id)
        with self._cv:
            return job.record()

    def result(self, job_id: str) -> dict:
        """Record of a *terminal* job; raises ``RuntimeError`` otherwise."""
        record = self.status(job_id)
        if record["state"] not in TERMINAL_JOB_STATES:
            raise RuntimeError(
                f"job {job_id} is {record['state']}, not finished")
        return record

    def list_jobs(self, tenant: str | None = None,
                  state: str | None = None) -> list[dict]:
        """Records of every known job (job-ID order), optionally filtered."""
        with self._cv:
            records = [self._jobs[jid].record()
                       for jid in sorted(self._jobs)]
        if tenant is not None:
            records = [r for r in records
                       if r["spec"].get("tenant") == tenant]
        if state is not None:
            records = [r for r in records if r["state"] == state]
        return records

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: dequeue it if queued, stop it if running.

        A running MA-family job stops at its next round boundary (its
        run record seals as ``cancelled``); terminal jobs are returned
        unchanged.
        """
        job = self._get(job_id)
        changed = False
        with self._cv:
            if job.state == "queued":
                job.state = "cancelled"
                job.updated_unix = time.time()
                self._order.remove(job_id)
                self._cv.notify_all()
                changed = True
            elif job.state == "running":
                job.cancel.set()
            record = job.record()
        if changed:
            self._persist(job)
        return record

    def tail_info(self, job_id: str) -> dict:
        """Where to tail a job: its latest attempt's run dir (or None)."""
        job = self._get(job_id)
        with self._cv:
            run_id = job.run_ids[-1] if job.run_ids else None
            state = job.state
        return {
            "job_id": job_id,
            "state": state,
            "run_id": run_id,
            "run_dir": (None if run_id is None
                        else str(self.store.root / run_id)),
        }

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until a job reaches a terminal state; returns its record."""
        job = self._get(job_id)
        with self._cv:
            self._cv.wait_for(
                lambda: job.state in TERMINAL_JOB_STATES, timeout)
            return job.record()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or running (True on success)."""
        with self._cv:
            return self._cv.wait_for(
                lambda: not self._order and not self._running, timeout)

    def counts(self) -> dict:
        """State -> job count (the ``ping`` reply's summary)."""
        out: dict[str, int] = {}
        with self._cv:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    # -- internals -----------------------------------------------------------
    def make_task(self, spec: Mapping[str, Any]) -> Any:
        """Task instance for a spec (via the injected factory)."""
        return self._task_factory(spec)

    def checkpoint_path(self, job_id: str) -> pathlib.Path:
        """Where a job's optimizer checkpoint lives."""
        return self.ckpt_dir / f"{job_id}.npz"

    def _get(self, job_id: str) -> Job:
        """Job for an exact ID or unique ID prefix (RunStore idiom)."""
        with self._cv:
            if job_id in self._jobs:
                return self._jobs[job_id]
            matches = [jid for jid in self._jobs
                       if jid.startswith(job_id)]
            if len(matches) == 1:
                return self._jobs[matches[0]]
            if matches:
                raise KeyError(f"ambiguous job prefix {job_id!r}: "
                               + ", ".join(sorted(matches)))
            raise KeyError(f"unknown job {job_id!r}")

    def _persist(self, job: Job) -> None:
        """Write the job record (atomic; called outside the lock —
        the last writer wins, and every version is internally
        consistent)."""
        with self._cv:
            record = job.record()
        atomic_write_json(self.jobs_dir / f"{job.job_id}.json", record)

    def _pick(self) -> Job | None:
        # Called by workers that already hold _cv; the Condition's
        # underlying RLock makes the re-acquisition free.
        with self._cv:
            queued = [self._jobs[jid] for jid in self._order]
            counts: dict[str, int] = {}
            for tenant in self._running.values():
                counts[tenant] = counts.get(tenant, 0) + 1
        return select_next(queued, counts, self.config.tenant_cap)

    def _worker(self) -> None:
        """Worker thread: claim runnable jobs until shutdown."""
        while True:
            claimed: Job | None = None
            with self._cv:
                while claimed is None and not self._shutdown:
                    claimed = self._pick()
                    if claimed is None:
                        self._cv.wait(self.config.poll_s)
                if claimed is None:
                    return
                claimed.state = "running"
                claimed.attempt += 1
                claimed.updated_unix = time.time()
                self._order.remove(claimed.job_id)
                self._running[claimed.job_id] = claimed.tenant
            self._execute(claimed)

    def _execute(self, job: Job) -> None:
        """Run one claimed job and seal its state (worker thread)."""
        spec = job.spec
        run_id = (job.job_id if job.attempt == 1
                  else f"{job.job_id}-r{job.attempt}")
        deadline = (None if not spec.get("timeout_s")
                    else time.monotonic() + float(spec["timeout_s"]))

        def should_stop() -> str:
            if job.cancel.is_set():
                return "cancelled"
            if self._stop.is_set():
                return "shutdown"
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
            return ""

        recorder = self.store.create_run(
            method=spec["method"], task=spec["task"], run_id=run_id,
            meta={"job_id": job.job_id, "attempt": job.attempt,
                  "tenant": job.tenant, "priority": job.priority})
        with self._cv:
            job.run_ids.append(run_id)
        self._persist(job)
        result: Any = None
        reason = ""
        error: str | None = None
        try:
            reason = should_stop()
            if not reason:
                result, reason = self._runner(self, job, recorder,
                                              should_stop)
                reason = reason or ""
        except Exception as exc:  # any crash fails the job, not the pool
            error = repr(exc)
        # Seal the run record; all three calls are no-ops when the
        # optimizer's own observer hooks already finalized it.
        if error is not None:
            recorder.mark_failed(error)
        elif reason:
            recorder.on_run_stopped(None, result, reason)
        else:
            recorder.finalize(result)
        if error is None and reason == "timeout":
            error = f"stopped: timeout after {spec['timeout_s']}s"
        with self._cv:
            job.state = ("failed" if error is not None
                         else _REASON_STATE.get(reason, "finished"))
            job.error = error
            job.summary = _summarize(result)
            job.updated_unix = time.time()
            del self._running[job.job_id]
            self._cv.notify_all()
        self._persist(job)


def _job_seq(job_id: str) -> int:
    """The sequence number encoded in a job ID (0 when unparseable)."""
    parts = job_id.split("-")
    try:
        return int(parts[1])
    except (IndexError, ValueError):
        return 0
