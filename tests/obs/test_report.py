"""Tests for the wall-time breakdown report."""

import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.obs import Telemetry, Tracer
from repro.obs.report import (breakdown, load_trace, main, render_breakdown,
                              report_from_tracer)

FAST = dict(critic_steps=10, actor_steps=5, batch_size=8, n_elite=5,
            hidden=(8, 8))


def _traced_run(n_sims=6, n_init=8):
    tracer = Tracer()
    task = ConstrainedSphere(d=4, seed=0)
    opt = MAOptimizer(task, MAOptConfig(seed=0, **FAST),
                      telemetry=Telemetry(tracer=tracer))
    opt.run(n_sims=n_sims, n_init=n_init)
    return tracer


class TestBreakdown:
    def test_empty(self):
        assert breakdown([]) == []
        assert "empty" in render_breakdown([])

    def test_phases_cover_run(self):
        tracer = _traced_run()
        rows = breakdown(tracer.to_rows())
        phases = {r["phase"] for r in rows}
        assert {"critic-train", "actor-train", "propose", "simulate",
                "(other)", "total"} <= phases
        total_row = rows[-1]
        assert total_row["phase"] == "total"
        # leaves + (other) sum to ~100% of the root run span
        pct_sum = sum(r["pct"] for r in rows if r["phase"] != "total")
        assert pct_sum == pytest.approx(100.0, abs=0.5)
        assert total_row["pct"] == 100.0

    def test_span_tree_covers_required_phases(self):
        tracer = _traced_run()
        for phase in ("critic-train", "actor-train", "simulate"):
            assert tracer.find(phase), f"missing {phase} spans"
        # phases are nested under the run root
        run = tracer.roots()[0]
        assert run.name == "run"
        names = {s.name for s, _ in run.iter_tree()}
        assert {"round", "critic-train", "actor-train", "simulate"} <= names

    def test_render_contains_percent_column(self):
        tracer = _traced_run(n_sims=4, n_init=6)
        text = report_from_tracer(tracer)
        assert "phase" in text and "%" in text
        assert "critic-train" in text

    def test_degenerate_root_only_trace(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        rows = breakdown(tracer.to_rows())
        assert rows[-1]["phase"] == "total"
        assert rows[0]["phase"] == "run"

    def test_childless_root_is_a_leaf(self):
        # The initial set's ``simulate`` span is a root without children,
        # next to the ``run`` root that holds the optimization loop.
        def span(sid, parent, name, duration):
            return {"id": sid, "parent_id": parent, "name": name,
                    "duration_s": duration}

        rows = breakdown([
            span(0, None, "run", 10.0),
            span(1, 0, "round", 6.0),
            span(2, 1, "critic-train", 2.0),
            span(3, 1, "simulate", 3.0),
            span(4, 0, "simulate", 1.0),
            span(5, None, "simulate", 10.0),
        ])
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["simulate"]["calls"] == 3
        assert by_phase["simulate"]["total_s"] == pytest.approx(14.0)
        assert by_phase["simulate"]["pct"] == pytest.approx(70.0)
        assert by_phase["critic-train"]["total_s"] == pytest.approx(2.0)
        # Only the time under ``run`` that no leaf covers: 10 - 2 - 3 - 1.
        assert by_phase["(other)"]["total_s"] == pytest.approx(4.0)
        assert by_phase["total"]["total_s"] == pytest.approx(20.0)
        assert sum(r["pct"] for r in rows if r["phase"] != "total") == \
            pytest.approx(100.0)
        assert "round" not in by_phase and "run" not in by_phase


class TestCli:
    def test_main_on_exported_trace(self, tmp_path, capsys):
        tracer = _traced_run(n_sims=4, n_init=6)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "critic-train" in out
        assert "100.0" in out

    def test_load_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": 0, "parent_id": null, "name": "run", '
                        '"duration_s": 1.0}\n\n')
        assert len(load_trace(str(path))) == 1
