"""Structured tracing: nested timed spans with JSONL export.

A :class:`Tracer` records a tree of :class:`Span` objects.  Instrumented
code opens spans with::

    with tracer.span("critic-train", steps=120):
        ...

Spans nest per-thread (a thread-local stack), so concurrent threads each
build their own branch of the tree; finished root spans are appended to a
lock-protected shared list.

When no tracer is attached (the default), instrumentation sites go through
:data:`NOOP_SPAN`, a shared reusable no-op context manager — the fast path
costs one attribute check and one function call.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, TextIO, cast


@dataclass
class Span:
    """One timed operation; ``children`` are spans opened while it ran."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    t_start: float = 0.0       # seconds since tracer creation
    duration_s: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def iter_tree(self, depth: int = 0) -> "Iterator[tuple[Span, int]]":
        """Yield ``(span, depth)`` pairs, depth-first, self included."""
        yield self, depth
        for child in self.children:
            yield from child.iter_tree(depth + 1)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class _NoopSpan:
    """Reusable do-nothing context manager (the no-tracer fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._span = Span(name, attrs)
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        self._span.t_start = self._t0 - self._tracer._epoch
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._span.duration_s = time.perf_counter() - self._t0
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects a thread-safe in-memory tree of timed spans."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []  # guarded by _lock

    # -- span lifecycle ------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested timed span; use as a context manager."""
        return _SpanContext(self, name, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exceptions unwinding several frames at once.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- inspection ----------------------------------------------------------
    def roots(self) -> list[Span]:
        """Completed top-level spans (in completion order)."""
        with self._lock:
            return list(self._roots)

    def find(self, name: str) -> list[Span]:
        """All completed spans named ``name``, depth-first."""
        return [s for root in self.roots()
                for s, _ in root.iter_tree() if s.name == name]

    def total_time(self, name: str) -> float:
        """Summed duration of every span named ``name``."""
        return sum(s.duration_s for s in self.find(name))

    # -- export --------------------------------------------------------------
    def to_rows(self, first_root: int = 0) -> list[dict]:
        """Flatten the trace to one dict per span.

        Each row carries ``id``/``parent_id`` so the tree can be rebuilt
        (or leaves identified) from the JSONL file alone.  Root spans
        finished before the ``first_root``-th (completion order) are left
        out.
        """
        rows: list[dict] = []
        next_id = 0
        for root in self.roots()[first_root:]:
            stack: list[tuple[Span, int | None, int]] = [(root, None, 0)]
            while stack:
                span, parent_id, depth = stack.pop()
                sid = next_id
                next_id += 1
                rows.append({
                    "id": sid,
                    "parent_id": parent_id,
                    "depth": depth,
                    "name": span.name,
                    "t_start": round(span.t_start, 6),
                    "duration_s": round(span.duration_s, 6),
                    "attrs": span.attrs,
                })
                for child in reversed(span.children):
                    stack.append((child, sid, depth + 1))
        return rows

    def export_jsonl(self, path_or_file: str | TextIO,
                     first_root: int = 0) -> int:
        """Write one JSON object per span; returns the span count.

        ``first_root`` is passed to :meth:`to_rows`.
        """
        rows = self.to_rows(first_root)
        if hasattr(path_or_file, "write"):
            fh, own = cast(TextIO, path_or_file), False
        else:
            fh, own = open(cast(str, path_or_file), "w",
                           encoding="utf-8"), True
        try:
            for row in rows:
                fh.write(json.dumps(row, default=_json_default) + "\n")
        finally:
            if own:
                fh.close()
        return len(rows)


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays (and other oddballs) for json.dumps."""
    if hasattr(obj, "item"):      # numpy scalar
        return obj.item()
    if hasattr(obj, "tolist"):    # numpy array
        return obj.tolist()
    return repr(obj)
