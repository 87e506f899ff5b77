"""Run-event stream: one structured event per evaluation/round.

:class:`RunLogger` is the optimizer's event sink.  Every event is kept
in memory (queryable via :meth:`RunLogger.events`), optionally appended to
a JSONL file, and optionally mirrored to a stdlib :mod:`logging` logger.

Event vocabulary emitted by the optimizers:

=================== ====================================================
kind                 payload
=================== ====================================================
run_start            method, task, n_sims
evaluation           kind (init/actor/ns/...), fom, feasible, owner,
                     index, t_wall
round_start          round, kind
round_end            round, kind, plus per-round diagnostics
                     (critic_loss, ...)
run_end              method, n_sims, best_fom, wall_time_s, success
sim_failed           kind, design_index, retries, reason
                     (exception/nonfinite/timeout), error — a design was
                     quarantined by the failure policy
checkpoint_saved     path, round or n_records — an optimizer snapshot
                     was written atomically
checkpoint_restored  path, round or n_records — an optimizer was rebuilt
                     from a snapshot
heartbeat            elapsed_s, n, workers, beats — emitted by the pool's
                     heartbeat thread while a batch is in flight
=================== ====================================================

``MAOptimizer.diagnostics`` is a backward-compatible view over the
``round_end`` events of its logger.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.obs.trace import _json_default


@dataclass
class RunEvent:
    """One structured event; ``t`` is seconds since the logger's creation."""

    kind: str
    t: float
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d = {"event": self.kind, "t": round(self.t, 6)}
        d.update(self.payload)
        return d


def configure_logging(level: int | str = logging.INFO,
                      stream: TextIO | None = None) -> logging.Logger:
    """Set up the ``repro`` logger hierarchy; returns the root of it.

    Safe to call repeatedly (handlers are not duplicated).
    """
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    return logger


class RunLogger:
    """Collects run events; optionally streams them to JSONL and/or logging.

    Parameters
    ----------
    path:
        Write one JSON object per event to this file as they happen.
    logger:
        Mirror events to this stdlib logger (or a logger name).
    level:
        Level used for mirrored log lines (default ``INFO``).
    """

    def __init__(self, path: str | None = None,
                 logger: logging.Logger | str | None = None,
                 level: int = logging.INFO) -> None:
        self._t0 = time.perf_counter()
        # emit() is called from the optimizer thread *and* the pool
        # heartbeat thread; the lock keeps the in-memory list and the
        # JSONL file line-atomic under that concurrency.
        self._lock = threading.Lock()
        self._events: list[RunEvent] = []  # guarded by _lock
        self._fh: TextIO | None = (        # guarded by _lock
            open(path, "w", encoding="utf-8") if path else None)
        if isinstance(logger, str):
            logger = logging.getLogger(logger)
        self._logger = logger
        self._level = level

    # -- emission ------------------------------------------------------------
    def emit(self, kind: str, /, **payload: Any) -> RunEvent:
        """Record one event; returns it.  Safe to call from any thread."""
        event = RunEvent(kind, time.perf_counter() - self._t0, payload)
        with self._lock:
            self._events.append(event)
            if self._fh is not None:
                # Writing under the lock is the point: it is what makes
                # each JSONL line atomic with its in-memory append, so a
                # tail reader never sees interleaved half-lines.
                self._fh.write(json.dumps(event.to_dict(),
                                          default=_json_default) + "\n")
                self._fh.flush()
        if self._logger is not None:
            self._logger.log(
                self._level, "%s %s", kind,
                " ".join(f"{k}={v}" for k, v in payload.items()))
        return event

    # -- inspection ----------------------------------------------------------
    def events(self, kind: str | None = None) -> list[RunEvent]:
        """All events so far, optionally filtered by kind."""
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def export_jsonl(self, path: str) -> int:
        """Dump the in-memory events to ``path``; returns the event count.

        Complements the streaming ``path=`` mode: a logger that ran purely
        in memory can still leave a durable event record afterwards.
        """
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event.to_dict(),
                                    default=_json_default) + "\n")
        return len(events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def close(self) -> None:
        """Close the JSONL file (idempotent); in-memory events remain."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
