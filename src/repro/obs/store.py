"""Durable on-disk run store: every optimization leaves a queryable record.

A *run* is one ``MAOptimizer.run`` / ``BaselineOptimizer.run`` /
``experiments.runner`` cell.  The store gives each run an ID and an
append-only directory under the store root::

    runs/
      20260807-141503-a1b2c3/
        manifest.json    # repro.obs/run document (status, method, summary)
        events.jsonl     # streamed run events (written live, line-atomic)
        metrics.jsonl    # metric snapshots appended at round ends
        metrics.json     # final MetricsRegistry snapshot (on finalize)
        trace.jsonl      # flattened span tree (on finalize)

``events.jsonl`` and ``metrics.jsonl`` are written while the run is in
flight, which is what ``ma-opt tail`` follows; ``trace.jsonl`` and the
manifest summary land when the run finalizes.  The manifest is a
versioned document (``repro.obs/run``) so future readers can detect
stale layouts instead of misparsing them.

Usage::

    store = RunStore("runs")
    rec = store.create_run(method="ma-opt", task="ota-two-stage")
    MAOptimizer(task, config, telemetry=rec.telemetry).run(n_sims=200)
    # rec finalizes itself when the run_end event is written

    for record in store.list_runs():
        print(record.run_id, record.manifest["status"])

CLI: ``ma-opt runs list|show|diff|export`` and ``ma-opt tail``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any

from repro.obs.events import RunEvent, RunLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer, _json_default

SCHEMA_NAME = "repro.obs/run"
SCHEMA_VERSION = 1
#: Schema of the bundled single-file export (``ma-opt runs export``).
EXPORT_SCHEMA_NAME = "repro.obs/run-export"

MANIFEST = "manifest.json"
EVENTS = "events.jsonl"
METRICS_STREAM = "metrics.jsonl"
METRICS_FINAL = "metrics.json"
TRACE = "trace.jsonl"

#: Manifest statuses.  ``interrupted`` seals a run stopped by Ctrl-C
#: (``KeyboardInterrupt``) in ``ma-opt optimize``/``compare``.
#: ``cancelled`` has no writer any more; it stays valid so run
#: directories written by earlier builds still load.
STATUSES = ("running", "finished", "failed", "cancelled", "interrupted")
TERMINAL_STATUSES = ("finished", "failed", "cancelled", "interrupted")


def new_run_id() -> str:
    """Sortable, collision-resistant run ID: UTC timestamp + random hex."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{os.urandom(3).hex()}"


def validate_manifest(doc: Any) -> list[str]:
    """All schema problems in a run manifest (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"manifest is {type(doc).__name__}, expected an object"]
    if doc.get("schema") != SCHEMA_NAME:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {SCHEMA_NAME!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {doc.get('schema_version')!r}; this build "
            f"reads version {SCHEMA_VERSION}")
    if not isinstance(doc.get("run_id"), str) or not doc.get("run_id"):
        problems.append("missing run_id")
    if doc.get("status") not in STATUSES:
        problems.append(f"bad status {doc.get('status')!r}")
    return problems


def ensure_valid_manifest(doc: Any, source: str = "manifest") -> dict:
    """Return ``doc`` if schema-valid, else raise ``ValueError``."""
    problems = validate_manifest(doc)
    if problems:
        raise ValueError(f"invalid run {source}: " + "; ".join(problems))
    return doc


def _write_json_atomic(path: pathlib.Path, doc: dict) -> None:
    """Write ``doc`` deterministically via tmp + rename (no torn reads)."""
    from repro.resilience.checkpoint import atomic_write_json

    atomic_write_json(path, doc, default=_json_default)


def _read_jsonl(path: pathlib.Path) -> list[dict]:
    if not path.exists():
        return []
    rows: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


class RunRecord:
    """Read-only view of one stored run (loaded lazily from disk)."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.manifest = ensure_valid_manifest(
            json.loads((self.path / MANIFEST).read_text(encoding="utf-8")),
            source=str(self.path / MANIFEST))
        self.run_id: str = self.manifest["run_id"]

    def events(self, kind: str | None = None) -> list[dict]:
        """Streamed run events, optionally filtered by kind."""
        rows = _read_jsonl(self.path / EVENTS)
        if kind is None:
            return rows
        return [r for r in rows if r.get("event") == kind]

    def metric_snapshots(self) -> list[dict]:
        """In-flight metric snapshots (one per round end)."""
        return _read_jsonl(self.path / METRICS_STREAM)

    def final_metrics(self) -> dict:
        """The finalize-time registry snapshot ({} while still running)."""
        path = self.path / METRICS_FINAL
        if not path.exists():
            return {}
        return json.loads(path.read_text(encoding="utf-8"))

    def trace_rows(self) -> list[dict]:
        """Flattened span rows ([] while still running)."""
        return _read_jsonl(self.path / TRACE)

    def summary(self) -> dict:
        """The one-line view ``ma-opt runs list`` prints."""
        m = self.manifest
        return {
            "run_id": self.run_id,
            "status": m.get("status"),
            "method": m.get("method"),
            "task": m.get("task"),
            "n_sims": m.get("n_sims"),
            "best_fom": m.get("best_fom"),
            "success": m.get("success"),
            "wall_time_s": m.get("wall_time_s"),
        }


class _RecorderLogger(RunLogger):
    """The recorder's event stream: records each event, then reacts to it.

    Round ends append a metric snapshot; ``run_end``
    finalizes the record from the event's payload.
    """

    def __init__(self, recorder: "RunRecorder", path: str) -> None:
        super().__init__(path=path)
        self._recorder = recorder

    def emit(self, kind: str, /, **payload: Any) -> RunEvent:
        event = super().emit(kind, **payload)
        if kind == "round_end":
            self._recorder.snapshot_metrics()
        elif kind == "run_end":
            self._recorder.finalize(payload)
        return event


class RunRecorder:
    """Writes one run's record while it happens.

    Exposes a ready-made :attr:`telemetry` bundle (tracer + metrics +
    events streamed into the run directory).  The recorder follows its
    own event stream: round ends append metric snapshots and
    the ``run_end`` event finalizes the record, so the normal optimizer
    lifecycle needs no explicit calls.  A run abandoned mid-flight keeps
    ``status="running"`` — visibly stale rather than silently absent.
    """

    def __init__(self, path: str | pathlib.Path, run_id: str,
                 method: str = "?", task: str = "?",
                 meta: dict | None = None,
                 base: Telemetry | None = None) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self._t0 = time.perf_counter()
        self._finalized = False
        tracer = base.tracer if base is not None and base.tracer else Tracer()
        metrics = (base.metrics if base is not None and base.metrics
                   else MetricsRegistry())
        run_logger = _RecorderLogger(self, str(self.path / EVENTS))
        # The recorder keeps non-optional handles to its own channels:
        # the bundle's attributes are typed optional, but the record on
        # disk is always written from the real objects built here.
        self._tracer = tracer
        self._metrics = metrics
        self._run_logger = run_logger
        self.telemetry = Telemetry(tracer=tracer, metrics=metrics,
                                   run_logger=run_logger, run_id=run_id)
        self._manifest: dict = {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "run_id": run_id,
            "status": "running",
            "method": method,
            "task": task,
            "created_unix": time.time(),
            "meta": dict(meta or {}),
        }
        _write_json_atomic(self.path / MANIFEST, self._manifest)

    # -- in-flight recording -------------------------------------------------
    def snapshot_metrics(self) -> None:
        """Append the current registry snapshot to the metrics stream."""
        snap = self._metrics.snapshot()
        snap["t"] = round(time.perf_counter() - self._t0, 6)
        with open(self.path / METRICS_STREAM, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(snap, default=_json_default) + "\n")

    # -- completion ----------------------------------------------------------
    def finalize(self, summary: dict | None = None,
                 status: str = "finished") -> None:
        """Export trace + final metrics and seal the manifest (idempotent).

        ``summary`` is a ``run_end`` event payload; its ``n_sims``,
        ``best_fom``, ``success`` and ``wall_time_s`` go into the manifest.
        """
        if self._finalized:
            return
        self._finalized = True
        n_spans = self._tracer.export_jsonl(str(self.path / TRACE))
        self._metrics.export_json(str(self.path / METRICS_FINAL))
        self._run_logger.close()
        self._manifest["status"] = status
        self._manifest["n_spans"] = n_spans
        self._manifest["n_events"] = len(self._run_logger)
        if summary is not None:
            self._manifest["n_sims"] = int(summary["n_sims"])
            self._manifest["best_fom"] = float(summary["best_fom"])
            self._manifest["success"] = bool(summary["success"])
            self._manifest["wall_time_s"] = float(summary["wall_time_s"])
        _write_json_atomic(self.path / MANIFEST, self._manifest)

    def mark_failed(self, error: str) -> None:
        """Seal the record for a run that died with an exception."""
        self._manifest["error"] = error
        self.finalize(status="failed")

    def record(self) -> RunRecord:
        """Read-back view of this run's directory."""
        return RunRecord(self.path)


class RunStore:
    """A directory of runs: creation, listing, prefix lookup."""

    def __init__(self, root: str | pathlib.Path = "runs") -> None:
        self.root = pathlib.Path(root)

    def create_run(self, method: str = "?", task: str = "?",
                   meta: dict | None = None,
                   base: Telemetry | None = None,
                   run_id: str | None = None) -> RunRecorder:
        """Allocate a run ID + directory and return its live recorder.

        ``base`` donates already-built telemetry channels (tracer/metrics
        from CLI flags); events always stream into the run directory.
        """
        run_id = run_id or new_run_id()
        return RunRecorder(self.root / run_id, run_id,
                           method=method, task=task, meta=meta, base=base)

    def run_ids(self) -> list[str]:
        """IDs of every run directory with a manifest, sorted ascending."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / MANIFEST).exists())

    def list_runs(self) -> list[RunRecord]:
        """Loaded records for every run in the store (oldest first)."""
        return [RunRecord(self.root / rid) for rid in self.run_ids()]

    def resolve(self, ref: str) -> pathlib.Path:
        """Run directory for an exact ID or a unique ID prefix."""
        exact = self.root / ref
        if (exact / MANIFEST).exists():
            return exact
        matches = [rid for rid in self.run_ids() if rid.startswith(ref)]
        if len(matches) == 1:
            return self.root / matches[0]
        if not matches:
            raise KeyError(f"no run matching {ref!r} in {self.root}")
        raise KeyError(
            f"ambiguous run prefix {ref!r}: {', '.join(matches)}")

    def load(self, ref: str) -> RunRecord:
        """Record for an exact run ID or unique prefix."""
        return RunRecord(self.resolve(ref))


def diff_runs(a: RunRecord, b: RunRecord) -> dict:
    """Field-by-field comparison of two runs (manifest + counters).

    Returns ``{"a", "b", "fields": {name: {"a", "b", "delta"?}},
    "counters": {metric: {"a", "b", "delta"}}}`` — the structure
    ``ma-opt runs diff`` renders.
    """
    out: dict = {"a": a.run_id, "b": b.run_id, "fields": {}, "counters": {}}
    for name in ("status", "method", "task", "n_sims", "best_fom",
                 "success", "wall_time_s"):
        va, vb = a.manifest.get(name), b.manifest.get(name)
        if va == vb:
            continue
        entry: dict = {"a": va, "b": vb}
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                and not isinstance(va, bool) and not isinstance(vb, bool):
            entry["delta"] = vb - va
        out["fields"][name] = entry
    ca = a.final_metrics().get("counters", {})
    cb = b.final_metrics().get("counters", {})
    for key in sorted(set(ca) | set(cb)):
        va, vb = ca.get(key, 0.0), cb.get(key, 0.0)
        if va != vb:
            out["counters"][key] = {"a": va, "b": vb, "delta": vb - va}
    return out


def export_run(record: RunRecord) -> str:
    """The whole run as one versioned ``repro.obs/run-export`` JSON text.

    Manifest, events, metric snapshots, final metrics and trace rows — the
    portable form for attaching a run to an issue or shipping it to
    another machine.
    """
    doc = {
        "schema": EXPORT_SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "manifest": record.manifest,
        "events": record.events(),
        "metric_snapshots": record.metric_snapshots(),
        "final_metrics": record.final_metrics(),
        "trace": record.trace_rows(),
    }
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
