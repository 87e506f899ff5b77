"""Span tracing of the repro layers, installed from outside ``src/``.

A traced run replaces each layer's public function with a timing wrapper
at every name callers bind it to.  Modules import by name (``from
repro.spice import operating_point``), so patching only the defining
module would miss most calls: :meth:`SpanTracer.patch_function` rebinds
the function in every loaded ``repro`` module that holds it.  Spans are
``[name, start, end, parent, info]`` lists kept in memory and written out
once the run ends; :meth:`SpanTracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

MARK = "__perfbench_span__"


def _is_repro(module) -> bool:
    name = getattr(module, "__name__", "")
    return name == "repro" or name.startswith("repro.")


class SpanTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._index: dict[str, list[list]] = {}
        self._indexed = -1

    # -- recording ------------------------------------------------------------
    def wrap(self, name: str, fn, after=None, when=None):
        """``fn`` recording one span per call.

        ``after(args, kwargs, result)`` becomes the span's info; while
        ``when()`` is false calls go straight through, unrecorded.
        """
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, out)
            return out

        setattr(traced, MARK, name)
        return traced

    def patch_attr(self, owner, attr: str, name: str, after=None,
                   when=None) -> None:
        """Wrap ``owner.attr``: a module's function or a class's own method."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, when))

    def patch_function(self, fn, name: str, after=None) -> None:
        """Wrap ``fn`` at every loaded ``repro`` module name bound to it."""
        wrapped = self.wrap(name, fn, after)
        hits = 0
        for module in list(sys.modules.values()):
            if not _is_repro(module):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is not "
                               "bound in any loaded repro module")

    def span(self, name: str) -> "_OwnSpan":
        """Context manager for a span around the benchmark's own code."""
        return _OwnSpan(self, name)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def named(self, name: str) -> list[list]:
        if self._indexed != len(self.spans):
            index: dict[str, list[list]] = defaultdict(list)
            for span in self.spans:
                index[span[0]].append(span)
            self._index, self._indexed = index, len(self.spans)
        return self._index.get(name, [])

    def busy_s(self, *names: str) -> float:
        """Wall seconds during which any span in ``names`` was open: spans
        with an ancestor in ``names`` are inside one already counted."""
        spans, wanted = self.spans, set(names)
        total = 0.0
        for name in wanted:
            for span in self.named(name):
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in wanted:
                    parent = spans[parent][3]
                if parent < 0:
                    total += span[2] - span[1]
        return total

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def infos(self, name: str) -> list:
        return [span[4] for span in self.named(name)]

    def durations_s(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.named(name)]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time of their direct children."""
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span[2] - span[1]
            own[span[0]] += duration
            if span[3] >= 0:
                own[self.spans[span[3]][0]] -= duration
        return dict(own)

    def write(self, path) -> None:
        """Gzipped JSON: a name table, ``[name, start_us, dur_us, parent]``
        rows and the counters."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(s[0], len(names)),
                 round((s[1] - t0) * 1e6, 1), round((s[2] - s[1]) * 1e6, 1),
                 s[3]] for s in self.spans]
        doc = {"names": list(names), "spans": rows,
               "counters": dict(self.counters)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _OwnSpan:
    def __init__(self, tracer: SpanTracer, name: str) -> None:
        self.tracer = tracer
        self.span = [name, 0.0, 0.0, -1, None]

    def __enter__(self) -> "_OwnSpan":
        stack = self.tracer._stack
        self.span[3] = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.span[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def installed_wrappers() -> list[str]:
    """Every tracing wrapper still reachable from the loaded repro modules,
    their classes, or ``numpy.linalg``; empty after a clean uninstall."""
    import numpy.linalg

    found = []
    owners: list = [m for m in list(sys.modules.values()) if _is_repro(m)]
    owners.append(numpy.linalg)
    seen: set[int] = set()
    while owners:
        owner = owners.pop()
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            if callable(value) and hasattr(value, MARK):
                where = getattr(owner, "__qualname__", owner.__name__)
                found.append(f"{where}.{attr}")
            elif (isinstance(value, type)
                  and _is_repro(sys.modules.get(value.__module__))):
                owners.append(value)
    return sorted(found)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` for the highest of p50/p90/p95/p99/p99.9
    that has at least ten samples beyond it (p50 below twenty samples)."""
    import numpy as np

    if not samples:
        return 50.0, 0.0
    pct = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if len(samples) * (100.0 - p) / 100.0 >= 10.0:
            pct = p
    return pct, float(np.percentile(samples, pct))
