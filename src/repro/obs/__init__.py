"""``repro.obs`` — dependency-free telemetry for the optimizer stack.

Two channels, bundled by :class:`Telemetry`:

* **tracing** (:mod:`repro.obs.trace`): nested timed spans + JSONL export;
* **run events** (:mod:`repro.obs.events`): one structured JSONL event per
  evaluation/round/simulated batch, with stdlib-``logging`` mirroring.
  Every count, loss, gauge and simulation latency of a run is a fold
  over these events.

:mod:`repro.obs.report` turns a trace into a per-phase wall-time
breakdown table; :mod:`repro.obs.store` gives every run a durable on-disk
record (``ma-opt runs``); :mod:`repro.obs.tail` follows a live run's
event stream (``ma-opt tail``).  See ``docs/observability.md``
for the full reference.
"""

from repro.obs.events import RunEvent, RunLogger, configure_logging
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.store import RunRecord, RunRecorder, RunStore, new_run_id
from repro.obs.trace import NOOP_SPAN, Span, Tracer

__all__ = [
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
