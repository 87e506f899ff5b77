"""``repro.obs`` — dependency-free telemetry for the optimizer stack.

Three channels, bundled by :class:`Telemetry`:

* **tracing** (:mod:`repro.obs.trace`): nested timed spans + JSONL export;
* **metrics** (:mod:`repro.obs.metrics`): counters/gauges/histograms;
* **run events** (:mod:`repro.obs.events`): one structured JSONL event per
  evaluation/round, with stdlib-``logging`` mirroring.

:mod:`repro.obs.report` turns a trace into a per-phase wall-time
breakdown table; :mod:`repro.obs.store` gives every run a durable on-disk
record (``ma-opt runs``); :mod:`repro.obs.tail` follows a live run's
event/metric streams (``ma-opt tail``).  See ``docs/observability.md``
for the full reference.
"""

from repro.obs.events import RunEvent, RunLogger, configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.store import RunRecord, RunRecorder, RunStore, new_run_id
from repro.obs.trace import NOOP_SPAN, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "NOOP_SPAN",
    "NULL_TELEMETRY",
    "RunEvent",
    "RunLogger",
    "RunRecord",
    "RunRecorder",
    "RunStore",
    "Span",
    "Telemetry",
    "Tracer",
    "configure_logging",
    "new_run_id",
]
