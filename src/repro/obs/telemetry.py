"""The :class:`Telemetry` bundle threaded through the optimizer stack.

One object groups the three observability channels — tracer, metrics
registry, run-event logger — so instrumented code takes a single
optional ``telemetry`` argument.  Every channel is optional;
:data:`NULL_TELEMETRY` (all channels off) is the shared default, and its
helpers reduce to one ``None`` check per call site, so uninstrumented
runs pay effectively nothing.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import RunLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Tracer


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


#: Shared all-channels-off default.  Never mutate it.
NULL_TELEMETRY = Telemetry()
