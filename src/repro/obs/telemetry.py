"""The :class:`Telemetry` bundle threaded through the optimizer stack.

One object groups the two observability channels — tracer and run-event
logger — so instrumented code takes a single optional ``telemetry``
argument.  Both channels are optional; :data:`NULL_TELEMETRY` (both
off) is the shared default, and its span helper reduces to one ``None``
check per call site, so uninstrumented runs pay effectively nothing.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import RunLogger
from repro.obs.trace import NOOP_SPAN, Tracer


class Telemetry:
    """Optional tracer + run logger, as one handle.

    ``run_id`` identifies the run this bundle records (set by the run
    store's recorder; otherwise each optimizer run generates its own).
    """

    __slots__ = ("tracer", "run_logger", "run_id")

    def __init__(self, tracer: Tracer | None = None,
                 run_logger: RunLogger | None = None,
                 run_id: str | None = None) -> None:
        self.tracer = tracer
        self.run_logger = run_logger
        self.run_id = run_id

    def span(self, name: str, **attrs: Any):
        """A timed span on the attached tracer, or a shared no-op."""
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)


#: Shared all-channels-off default.  Never mutate it.
NULL_TELEMETRY = Telemetry()
