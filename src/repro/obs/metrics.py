"""Metrics registry: counters, gauges, and histograms with labels.

A metric is identified by ``name`` plus a (possibly empty) label set,
rendered as ``sims_total{kind=actor}`` in snapshots and in the JSON and
CSV exports.  The registry is thread-safe; every mutation takes one
short lock.

The registry stores raw histogram observations (capped at
:data:`HISTOGRAM_CAP` values per series; running count/sum/min/max stay
exact beyond the cap) so snapshots can report percentiles.
"""

from __future__ import annotations

import csv
import json
import threading
from typing import Any, TextIO

import numpy as np

HISTOGRAM_CAP = 65536


def _key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    __slots__ = ("count", "sum", "min", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.values) < HISTOGRAM_CAP:
            self.values.append(value)

    def stats(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        arr = np.asarray(self.values)
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }


class MetricsRegistry:
    """Lazily-created counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()   # guards the three tables below
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, _Histogram] = {}

    # -- recording -----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name{labels}`` by ``value``."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name{labels}`` to its latest value."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into histogram ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Histogram()
            hist.observe(float(value))

    # -- reading -------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_stats(self, name: str, **labels: Any) -> dict[str, float]:
        with self._lock:
            hist = self._hists.get(_key(name, labels))
            return hist.stats() if hist is not None else {"count": 0}

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time copy: ``{"counters": {...}, "gauges": {...},
        "histograms": {series: stats}}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.stats() for k, h in self._hists.items()},
            }

    def rows(self) -> list[dict]:
        """Flat rows (one per series) for tabular export."""
        snap = self.snapshot()
        out: list[dict] = []
        for key, value in sorted(snap["counters"].items()):
            out.append({"metric": key, "type": "counter", "value": value})
        for key, value in sorted(snap["gauges"].items()):
            out.append({"metric": key, "type": "gauge", "value": value})
        for key, stats in sorted(snap["histograms"].items()):
            row = {"metric": key, "type": "histogram"}
            row.update(stats)
            out.append(row)
        return out

    # -- export --------------------------------------------------------------
    def export_json(self, path_or_file: str | TextIO) -> None:
        self._write(path_or_file,
                    lambda fh: json.dump(self.snapshot(), fh, indent=2,
                                         sort_keys=True))

    def export_csv(self, path_or_file: str | TextIO) -> None:
        rows = self.rows()
        fields = ["metric", "type", "value", "count", "sum", "mean",
                  "min", "max", "p50", "p95"]

        def write(fh: TextIO) -> None:
            writer = csv.DictWriter(fh, fieldnames=fields, restval="")
            writer.writeheader()
            writer.writerows(rows)

        self._write(path_or_file, write)

    def export(self, path: str) -> None:
        """Export by extension: ``.csv`` -> CSV, anything else -> JSON."""
        if str(path).endswith(".csv"):
            self.export_csv(path)
        else:
            self.export_json(path)

    @staticmethod
    def _write(path_or_file: str | TextIO, fn) -> None:
        if hasattr(path_or_file, "write"):
            fn(path_or_file)
        else:
            with open(str(path_or_file), "w", encoding="utf-8",
                      newline="") as fh:
                fn(fh)
