"""The :class:`Telemetry` bundle threaded through the optimizer stack.

One object groups the three observability channels — tracer, metrics
registry, run-event logger — so instrumented code takes a single
optional ``telemetry`` argument.  Every channel is optional;
:data:`NULL_TELEMETRY` (all channels off) is the shared default, and its
helpers reduce to one ``None`` check per call site, so uninstrumented
runs pay effectively nothing.

Cross-process capture: :class:`WorkerTelemetry` is the worker-side
counterpart.  A pool worker cannot write into the parent's tracer or
metrics registry (the write would land in the worker process), so each
worker records spans/counters/observations into its own
``WorkerTelemetry`` and ships a :class:`WorkerCapture` back with every
task result.  The parent replays the capture through
:func:`absorb_capture`: counters/observations merge into the parent
registry and the recorded spans are grafted under the owning parent span
with ``pid``/``seq`` attributes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import RunLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Span, Tracer


class Telemetry:
    """Optional tracer + metrics + run logger, as one handle.

    ``run_id`` identifies the run this bundle records (set by the run
    store's recorder; otherwise each optimizer run generates its own).
    """

    __slots__ = ("tracer", "metrics", "run_logger", "run_id")

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 run_logger: RunLogger | None = None,
                 run_id: str | None = None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.run_logger = run_logger
        self.run_id = run_id

    # -- tracing -------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """A timed span on the attached tracer, or a shared no-op."""
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    # -- metrics -------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(name, value, **labels)

    @property
    def wants_worker_capture(self) -> bool:
        """True when pool workers should record and ship telemetry back."""
        return self.tracer is not None or self.metrics is not None


#: Shared all-channels-off default.  Never mutate it.
NULL_TELEMETRY = Telemetry()


@dataclass
class WorkerCapture:
    """Telemetry recorded inside one worker-side task, shipped back whole.

    Every field is built from plain python / :class:`~repro.obs.trace.Span`
    values, so the object pickles across the ``spawn`` process boundary.
    ``t_start`` values in ``spans`` are seconds since the task started in
    the worker.
    """

    pid: int
    seq: int                      # per-worker dispatch counter (1-based)
    spans: list[Span] = field(default_factory=list)
    counters: list[tuple[str, float, dict]] = field(default_factory=list)
    observations: list[tuple[str, float, dict]] = field(default_factory=list)
    gauges: list[tuple[str, float, dict]] = field(default_factory=list)


class _WorkerSpanContext:
    """Span context manager on a :class:`WorkerTelemetry` (single-thread)."""

    __slots__ = ("_wt", "_span", "_t0")

    def __init__(self, wt: "WorkerTelemetry", name: str, attrs: dict) -> None:
        self._wt = wt
        self._span = Span(name, attrs)
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        self._span.t_start = self._t0 - self._wt._epoch
        self._wt._stack.append(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._span.duration_s = time.perf_counter() - self._t0
        stack = self._wt._stack
        while stack and stack[-1] is not self._span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(self._span)
        else:
            self._wt._roots.append(self._span)
        return False


class WorkerTelemetry:
    """Per-worker-process span/counter/histogram recorder.

    Lives as worker-local state (one instance per pool worker, created by
    the pool initializer), mirrors the recording subset of
    :class:`Telemetry` — ``span``/``inc``/``observe``/``set_gauge`` — and
    accumulates everything locally.  :meth:`drain` snapshots the recording
    into a picklable :class:`WorkerCapture` and resets the clock for the
    next task, so each task result carries exactly the telemetry recorded
    while it ran.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._seq = 0
        self._stack: list[Span] = []
        self._roots: list[Span] = []
        self._counters: list[tuple[str, float, dict]] = []
        self._observations: list[tuple[str, float, dict]] = []
        self._gauges: list[tuple[str, float, dict]] = []

    # -- recording (Telemetry-compatible subset) -----------------------------
    def span(self, name: str, **attrs: Any) -> _WorkerSpanContext:
        """A timed span recorded locally in the worker."""
        return _WorkerSpanContext(self, name, attrs)

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        self._counters.append((name, float(value), labels))

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self._observations.append((name, float(value), labels))

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges.append((name, float(value), labels))

    # -- shipping ------------------------------------------------------------
    def drain(self) -> WorkerCapture:
        """Snapshot and reset: the capture for the task that just ran."""
        self._seq += 1
        capture = WorkerCapture(
            pid=os.getpid(), seq=self._seq,
            spans=self._roots, counters=self._counters,
            observations=self._observations, gauges=self._gauges)
        self._stack = []
        self._roots = []
        self._counters = []
        self._observations = []
        self._gauges = []
        self._epoch = time.perf_counter()
        return capture


def absorb_capture(telemetry: Telemetry, capture: WorkerCapture,
                   parent: Span | None) -> None:
    """Replay one worker capture into the parent-side telemetry.

    Counters/observations/gauges merge into the parent registry exactly as
    if recorded locally.  Spans are grafted as children of ``parent`` (the
    owning ``simulate`` span, when a tracer is attached), re-based onto the
    parent's clock by treating the worker task's start as the parent
    span's start, and stamped with the worker's ``pid``/``seq``.
    """
    for name, value, labels in capture.counters:
        telemetry.inc(name, value, **labels)
    for name, value, labels in capture.observations:
        telemetry.observe(name, value, **labels)
    for name, value, labels in capture.gauges:
        telemetry.set_gauge(name, value, **labels)
    if parent is None:
        return
    for span in capture.spans:
        grafted = span.shifted(parent.t_start)
        grafted.attrs.setdefault("pid", capture.pid)
        grafted.attrs.setdefault("seq", capture.seq)
        parent.children.append(grafted)
