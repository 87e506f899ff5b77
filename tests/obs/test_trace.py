"""Unit tests for the span tracer."""

import json
import threading

from repro.obs import NOOP_SPAN, Telemetry, Tracer


class TestSpans:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
            with tracer.span("inner", k=2):
                pass
        roots = tracer.roots()
        assert len(roots) == 1
        assert roots[0].name == "outer"
        assert [c.name for c in roots[0].children] == ["inner", "inner"]
        assert roots[0].children[1].attrs == {"k": 2}

    def test_durations_nonnegative_and_nested_smaller(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer = tracer.roots()[0]
        inner = outer.children[0]
        assert 0.0 <= inner.duration_s <= outer.duration_s

    def test_span_yields_span_object(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            span.attrs["extra"] = True
        root = tracer.roots()[0]
        assert root.attrs == {"size": 3, "extra": True}

    def test_find_and_total_time(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("round"):
                with tracer.span("train"):
                    pass
        assert len(tracer.find("train")) == 3
        assert tracer.total_time("train") <= tracer.total_time("round")

    def test_exception_closes_span(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert tracer.roots()[0].name == "boom"
        # The stack unwound: a new span becomes a fresh root, not a child.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots()] == ["boom", "after"]

    def test_threads_build_separate_branches(self):
        tracer = Tracer()

        def work(i):
            with tracer.span("thread-root", i=i):
                with tracer.span("leaf"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots()
        assert len(roots) == 4
        assert all(len(r.children) == 1 for r in roots)

    def test_concurrent_threads_keep_tree_consistent(self):
        # Heavier stress: many threads hammering one tracer must yield a
        # tree whose row count and parent links add up exactly.
        tracer = Tracer()
        n_threads, n_spans = 8, 25

        def work(i):
            for j in range(n_spans):
                with tracer.span("op", i=i, j=j):
                    with tracer.span("sub"):
                        pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.roots()) == n_threads * n_spans
        rows = tracer.to_rows()
        assert len(rows) == n_threads * n_spans * 2
        by_id = {r["id"]: r for r in rows}
        for row in rows:
            if row["name"] == "sub":
                assert by_id[row["parent_id"]]["name"] == "op"
            else:
                assert row["parent_id"] is None


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("phase", n=2):
                pass
        path = tmp_path / "trace.jsonl"
        n = tracer.export_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == n == 2
        by_name = {r["name"]: r for r in rows}
        assert by_name["run"]["parent_id"] is None
        assert by_name["phase"]["parent_id"] == by_name["run"]["id"]
        assert by_name["phase"]["depth"] == 1
        assert by_name["phase"]["attrs"] == {"n": 2}

    def test_numpy_attrs_serializable(self, tmp_path):
        import numpy as np

        tracer = Tracer()
        with tracer.span("s", width=np.float64(0.5), n=np.int64(3)):
            pass
        path = tmp_path / "t.jsonl"
        tracer.export_jsonl(str(path))
        row = json.loads(path.read_text())
        assert row["attrs"] == {"width": 0.5, "n": 3}


class TestNoopPath:
    def test_noop_span_reusable(self):
        with NOOP_SPAN:
            with NOOP_SPAN:
                pass

    def test_null_telemetry_span_is_noop(self):
        tel = Telemetry()
        assert tel.span("anything", k=1) is NOOP_SPAN

    def test_telemetry_with_tracer_records(self):
        tracer = Tracer()
        tel = Telemetry(tracer=tracer)
        with tel.span("x"):
            pass
        assert tracer.find("x")
