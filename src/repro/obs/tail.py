"""Live run monitoring: follow a run's event stream as it happens.

``ma-opt tail <run-id|path>`` polls the ``events.jsonl`` of the run
directory the store writes, reading only bytes appended since the
previous poll (offset resume — a restarted tail picks up where the file
is, not from scratch), and renders a one-screen status: run phase,
round/evaluation progress, best FoM, failure counts and sim-latency
p50/p95 over every ``simulated`` event's seconds.

The reader is deliberately decoupled from the writer: it only ever opens
files, so it can run in another process, on another machine over a
shared filesystem, or after the run finished (``--once`` prints the
final state and exits).  A run that stops appending without a
``run_end`` event is flagged as stalled after ``stall_after_s``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.obs.store import EVENTS, MANIFEST, TERMINAL_STATUSES, RunStore


def manifest_status(run_dir: str | pathlib.Path) -> str | None:
    """The run's manifest ``status``, or None when unreadable/absent.

    Lets the tail loop notice runs that ended *without* a ``run_end``
    event — failed or interrupted (Ctrl-C) runs seal their manifest but
    never emit the finish event the event-stream fold waits for.
    """
    path = pathlib.Path(run_dir) / MANIFEST
    try:
        return json.loads(path.read_text(encoding="utf-8")).get("status")
    except (OSError, ValueError):
        return None


def read_new_lines(path: str | pathlib.Path,
                   offset: int) -> tuple[list[str], int]:
    """Complete lines appended to ``path`` since byte ``offset``.

    Returns ``(lines, new_offset)``.  A trailing partial line (writer
    mid-append) is left for the next call; a missing file reads as empty.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [], offset
    size = path.stat().st_size
    if size <= offset:
        return [], offset
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read(size - offset)
    # Only consume up to the last newline; the remainder is in flight.
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    lines = chunk[:end].decode("utf-8", errors="replace").split("\n")
    return [ln for ln in lines if ln.strip()], offset + end + 1


@dataclass
class TailState:
    """Rolling view of one run, updated event-by-event."""

    run_id: str = "?"
    method: str = "?"
    task: str = "?"
    status: str = "waiting"     # waiting | running | finished | failed
    n_sims_target: int | None = None
    evaluations: int = 0
    rounds: int = 0
    best_fom: float | None = None
    failures: int = 0
    lint_rejections: int = 0
    sim_seconds: list[float] = field(default_factory=list)
    last_event_t: float | None = None   # writer clock of the latest event
    events_seen: int = 0
    extra: dict = field(default_factory=dict)

    def apply_event(self, row: dict) -> None:
        """Fold one ``events.jsonl`` row into the state."""
        kind = row.get("event")
        self.events_seen += 1
        if "t" in row:
            self.last_event_t = float(row["t"])
        if kind == "run_start":
            self.status = "running"
            self.method = str(row.get("method", self.method))
            self.task = str(row.get("task", self.task))
            if row.get("run_id"):
                self.run_id = str(row["run_id"])
            if row.get("n_sims") is not None:
                self.n_sims_target = int(row["n_sims"])
        elif kind == "evaluation":
            # Budget convention: n_sims counts post-init simulations only.
            if row.get("kind") != "init":
                self.evaluations += 1
            fom = row.get("fom")
            if fom is not None and (self.best_fom is None
                                    or fom < self.best_fom):
                self.best_fom = float(fom)
        elif kind == "round_end":
            self.rounds = max(self.rounds, int(row.get("round", 0)))
            if row.get("best_fom") is not None:
                self.best_fom = float(row["best_fom"])
        elif kind == "sim_failed":
            self.failures += 1
        elif kind == "lint_rejected":
            self.lint_rejections += 1
        elif kind == "simulated":
            self.sim_seconds.extend(float(s) for s in row.get("seconds", ()))
        elif kind == "run_end":
            self.status = "finished"
            if row.get("best_fom") is not None:
                self.best_fom = float(row["best_fom"])

    @property
    def sim_p50(self) -> float | None:
        """Median seconds per simulation, over every kind (None if none)."""
        return self._sim_percentile(50)

    @property
    def sim_p95(self) -> float | None:
        """95th-percentile seconds per simulation, over every kind."""
        return self._sim_percentile(95)

    def _sim_percentile(self, q: float) -> float | None:
        if not self.sim_seconds:
            return None
        return float(np.percentile(self.sim_seconds, q))


def _fmt(value: Any, spec: str = "") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def render(state: TailState, stalled_s: float | None = None) -> str:
    """One-screen text rendering of a :class:`TailState`."""
    progress = str(state.evaluations)
    if state.n_sims_target:
        pct = 100.0 * state.evaluations / state.n_sims_target
        progress = f"{state.evaluations}/{state.n_sims_target} ({pct:.0f}%)"
    lines = [
        f"run {state.run_id}  [{state.status}]  "
        f"method={state.method}  task={state.task}",
        f"  sims {progress}  rounds {state.rounds}  "
        f"best_fom {_fmt(state.best_fom, '.6g')}",
        f"  failures {state.failures}  "
        f"lint_rejected {state.lint_rejections}",
        f"  sim latency p50 {_fmt(state.sim_p50, '.4g')}s  "
        f"p95 {_fmt(state.sim_p95, '.4g')}s",
    ]
    if stalled_s is not None:
        lines.append(f"  ** no new data for {stalled_s:.0f}s — "
                     "run may be stalled or dead **")
    return "\n".join(lines)


def resolve_run_dir(ref: str, store_root: str = "runs") -> pathlib.Path:
    """Run directory for a path, a run ID, or a unique ID prefix."""
    as_path = pathlib.Path(ref)
    if as_path.is_dir():
        return as_path
    return RunStore(store_root).resolve(ref)


def tail_run(run_dir: str | pathlib.Path,
             poll_s: float = 0.5,
             once: bool = False,
             max_polls: int | None = None,
             stall_after_s: float = 30.0,
             out: Any = None,
             sleep: Callable[[float], None] = time.sleep) -> TailState:
    """Follow a run directory until it finishes (or ``once``/``max_polls``).

    Prints a re-rendered status block after every poll that saw new data.
    Returns the final :class:`TailState` (the testable core —
    ``read_new_lines`` + state folding do all the work; the CLI is a thin
    wrapper).
    """
    run_dir = pathlib.Path(run_dir)
    out = out if out is not None else sys.stdout
    state = TailState(run_id=run_dir.name)
    offset = 0
    last_data = time.perf_counter()
    polls = 0
    while True:
        polls += 1
        lines, offset = read_new_lines(run_dir / EVENTS, offset)
        fresh = bool(lines)
        for line in lines:
            state.apply_event(json.loads(line))
        now = time.perf_counter()
        if fresh:
            last_data = now
        stalled = (now - last_data if state.status == "running"
                   and now - last_data >= stall_after_s else None)
        sealed = None
        if not fresh and state.status != "finished":
            # No run_end event and nothing new on disk: the manifest is
            # the authority on runs that ended abnormally (failed /
            # interrupted) — they seal their status without
            # ever emitting the finish event this fold waits for.
            sealed = manifest_status(run_dir)
            if sealed in TERMINAL_STATUSES:
                state.status = sealed
            else:
                sealed = None
        if fresh or once or sealed is not None or stalled is not None:
            print(render(state, stalled_s=stalled), file=out, flush=True)
        if once or state.status == "finished" or sealed is not None:
            return state
        if max_polls is not None and polls >= max_polls:
            return state
        sleep(poll_s)
