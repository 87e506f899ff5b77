"""Wall-time breakdown reports from trace files.

Answers "where does the run spend its time": aggregates *leaf* spans
(spans without children, roots included: the instrumented phases —
critic-train, actor-train, propose, simulate, near-sampling, ...) by name,
plus an ``(other)`` row for time inside the root spans not covered by any
leaf, so the percentages sum to ~100% of the traced run time.

Usage::

    PYTHONPATH=src python -m repro.obs.report trace.jsonl

or in-process::

    from repro.obs.report import breakdown, render_breakdown
    print(render_breakdown(breakdown(tracer.to_rows())))
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence


def load_trace(path: str) -> list[dict]:
    """Parse a span-per-line JSONL trace file (skipping blank lines)."""
    rows: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def breakdown(rows: Sequence[dict]) -> list[dict]:
    """Aggregate flattened span rows into per-phase wall-time totals.

    Returns rows ``{"phase", "calls", "total_s", "mean_s", "pct"}`` sorted
    by descending total, followed by ``(other)`` (uninstrumented time under
    the roots) and a ``total`` row at 100%.  Total time is the summed
    duration of the root spans (``parent_id is None``).
    """
    if not rows:
        return []
    roots = [r for r in rows if r.get("parent_id") is None]
    total = sum(r["duration_s"] for r in roots)
    # A leaf is any span without children, roots included: the initial
    # set's ``simulate`` span is a childless root outside the ``run`` span.
    parent_ids = {r["parent_id"] for r in rows if r.get("parent_id") is not None}
    leaves = [r for r in rows if r["id"] not in parent_ids]

    phases: dict[str, dict] = {}
    for row in leaves:
        agg = phases.setdefault(row["name"], {"calls": 0, "total_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += row["duration_s"]

    out: list[dict] = [{
        "phase": name,
        "calls": agg["calls"],
        "total_s": agg["total_s"],
        "mean_s": agg["total_s"] / agg["calls"],
        "pct": 100.0 * agg["total_s"] / total if total > 0 else 0.0,
    } for name, agg in phases.items()]
    out.sort(key=lambda r: -r["total_s"])

    other = max(0.0, total - sum(r["total_s"] for r in out))
    out.append({
        "phase": "(other)", "calls": len(roots), "total_s": other,
        "mean_s": other / max(len(roots), 1),
        "pct": 100.0 * other / total if total > 0 else 0.0,
    })
    out.append({
        "phase": "total", "calls": len(roots), "total_s": total,
        "mean_s": total / max(len(roots), 1),
        "pct": 100.0 if total > 0 else 0.0,
    })
    return out


def render_breakdown(rows: Sequence[dict],
                     title: str = "wall-time breakdown") -> str:
    """ASCII table of a :func:`breakdown` result."""
    if not rows:
        return f"{title}: (empty trace)"
    header = f"{'phase':<16} {'calls':>6} {'total_s':>10} {'mean_s':>10} {'%':>6}"
    lines = [title, header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['phase']:<16} {row['calls']:>6d} {row['total_s']:>10.4f} "
            f"{row['mean_s']:>10.4f} {row['pct']:>6.1f}")
    return "\n".join(lines)


def report_from_tracer(tracer) -> str:
    """Convenience: breakdown table straight from a live Tracer."""
    return render_breakdown(breakdown(tracer.to_rows()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="per-phase wall-time breakdown of a JSONL trace")
    parser.add_argument("trace", help="trace file written by --trace-out")
    args = parser.parse_args(argv)
    try:
        rows = load_trace(args.trace)
    except OSError as exc:
        print(f"repro.obs.report: error: cannot read {args.trace}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(render_breakdown(breakdown(rows), title=f"trace: {args.trace}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
