"""Durable on-disk run store: every optimization leaves a queryable record.

A *run* is one ``MAOptimizer.run`` / ``BaselineOptimizer.run`` /
``experiments.runner`` cell.  The store gives each run an ID and an
append-only directory under the store root::

    runs/
      20260807-141503-a1b2c3/
        manifest.json    # repro.obs/run document (status, method, summary)
        events.jsonl     # streamed run events (written live, line-atomic)
        trace.jsonl      # flattened span tree (on finalize)

``events.jsonl`` is written while the run is in flight, which is what
``ma-opt tail`` follows; ``trace.jsonl`` and the manifest summary land
when the run finalizes.  Every count a reader shows is a fold over the
events.  Run directories written by earlier builds may also hold
``metrics.*`` files; nothing reads them, and the directories still load.
The manifest is a versioned document (``repro.obs/run``) so future
readers can detect stale layouts instead of misparsing them.

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
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer, _json_default

SCHEMA_NAME = "repro.obs/run"
SCHEMA_VERSION = 1
#: Schema of the bundled single-file export (``ma-opt runs export``).
#: Version 2 dropped the metric snapshots.
EXPORT_SCHEMA_NAME = "repro.obs/run-export"
EXPORT_SCHEMA_VERSION = 2

MANIFEST = "manifest.json"
EVENTS = "events.jsonl"
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
    """The recorder's event stream: ``run_end`` finalizes the record
    from the event's payload."""

    def __init__(self, recorder: "RunRecorder", path: str) -> None:
        super().__init__(path=path)
        self._recorder = recorder

    def emit(self, kind: str, /, **payload: Any) -> RunEvent:
        event = super().emit(kind, **payload)
        if kind == "run_end":
            self._recorder.finalize(payload)
        return event


class RunRecorder:
    """Writes one run's record while it happens.

    Exposes a ready-made :attr:`telemetry` bundle (tracer + events
    streamed into the run directory).  The recorder follows its own
    event stream: the ``run_end`` event finalizes the record, so the
    normal optimizer lifecycle needs no explicit calls.  A run abandoned
    mid-flight keeps ``status="running"`` — visibly stale rather than
    silently absent.
    """

    def __init__(self, path: str | pathlib.Path, run_id: str,
                 method: str = "?", task: str = "?",
                 meta: dict | None = None,
                 base: Telemetry | None = None) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self._finalized = False
        tracer = base.tracer if base is not None and base.tracer else Tracer()
        # A donated tracer may hold earlier runs' spans (one tracer serves
        # every cell of a comparison): this run's trace starts after them.
        self._first_root = len(tracer.roots())
        run_logger = _RecorderLogger(self, str(self.path / EVENTS))
        # The recorder keeps non-optional handles to its own channels:
        # the bundle's attributes are typed optional, but the record on
        # disk is always written from the real objects built here.
        self._tracer = tracer
        self._run_logger = run_logger
        self.telemetry = Telemetry(tracer=tracer, run_logger=run_logger,
                                   run_id=run_id)
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

    # -- completion ----------------------------------------------------------
    def finalize(self, summary: dict | None = None,
                 status: str = "finished") -> None:
        """Export the trace and seal the manifest (idempotent).

        The trace holds the root spans that finished after the recorder
        was created.

        ``summary`` is a ``run_end`` event payload; its ``n_sims``,
        ``best_fom``, ``success`` and ``wall_time_s`` go into the manifest.
        """
        if self._finalized:
            return
        self._finalized = True
        n_spans = self._tracer.export_jsonl(str(self.path / TRACE),
                                            first_root=self._first_root)
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

        ``base`` donates an already-built tracer (from CLI flags); events
        always stream into the run directory.
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


#: Event kinds whose counts are split by the event's own ``kind`` field
#: (the provenance of the design: ``init``, ``actor``, ``ns``, ...).
SPLIT_BY_KIND = ("evaluation", "sim_failed", "lint_rejected")


def event_counts(events: list[dict]) -> dict[str, int]:
    """Number of events of each kind, sorted by key.

    The kinds in :data:`SPLIT_BY_KIND` are counted per provenance, keyed
    like ``evaluation{kind=actor}``.
    """
    counts: dict[str, int] = {}
    for row in events:
        key = str(row.get("event"))
        if key in SPLIT_BY_KIND:
            key = f"{key}{{kind={row.get('kind')}}}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def diff_runs(a: RunRecord, b: RunRecord) -> dict:
    """Field-by-field comparison of two runs (manifest + event counts).

    Returns ``{"a", "b", "fields": {name: {"a", "b", "delta"?}},
    "events": {key: {"a", "b", "delta"}}}`` — the structure
    ``ma-opt runs diff`` renders; ``events`` keys are those of
    :func:`event_counts`.
    """
    out: dict = {"a": a.run_id, "b": b.run_id, "fields": {}, "events": {}}
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
    ca, cb = event_counts(a.events()), event_counts(b.events())
    for key in sorted(set(ca) | set(cb)):
        va, vb = ca.get(key, 0), cb.get(key, 0)
        if va != vb:
            out["events"][key] = {"a": va, "b": vb, "delta": vb - va}
    return out


def export_run(record: RunRecord) -> str:
    """The whole run as one versioned ``repro.obs/run-export`` JSON text.

    Manifest, events and trace rows — the portable form for attaching a
    run to a bug report or shipping it to another machine.
    """
    doc = {
        "schema": EXPORT_SCHEMA_NAME,
        "schema_version": EXPORT_SCHEMA_VERSION,
        "manifest": record.manifest,
        "events": record.events(),
        "trace": record.trace_rows(),
    }
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
