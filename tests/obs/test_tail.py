"""Live-run tailing: offset-resume reads, state folding, the poll loop."""

import io
import json

import numpy as np
import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.obs.store import EVENTS, RunStore
from repro.obs.tail import (
    TailState,
    read_new_lines,
    render,
    resolve_run_dir,
    tail_run,
)


def _append(path, *rows):
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestReadNewLines:
    def test_offset_resume(self, tmp_path):
        path = tmp_path / "f.jsonl"
        _append(path, {"a": 1}, {"a": 2})
        lines, offset = read_new_lines(path, 0)
        assert [json.loads(ln)["a"] for ln in lines] == [1, 2]
        # nothing new -> same offset, no lines
        assert read_new_lines(path, offset) == ([], offset)
        _append(path, {"a": 3})
        lines, offset2 = read_new_lines(path, offset)
        assert [json.loads(ln)["a"] for ln in lines] == [3]
        assert offset2 > offset

    def test_partial_line_left_in_flight(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"a": 2')  # writer mid-append
        lines, offset = read_new_lines(path, 0)
        assert [json.loads(ln)["a"] for ln in lines] == [1]
        # completing the line makes it readable from the saved offset
        with open(path, "a") as fh:
            fh.write("}\n")
        lines, _ = read_new_lines(path, offset)
        assert json.loads(lines[0])["a"] == 2

    def test_missing_file(self, tmp_path):
        assert read_new_lines(tmp_path / "nope.jsonl", 0) == ([], 0)


class TestTailState:
    def test_event_folding(self):
        state = TailState()
        state.apply_event({"event": "run_start", "t": 0.0, "run_id": "r1",
                           "method": "MA-Opt", "task": "sphere4",
                           "n_sims": 4})
        assert state.status == "running" and state.n_sims_target == 4
        # init evaluations don't count against the post-init budget
        state.apply_event({"event": "evaluation", "kind": "init", "fom": 2.0})
        state.apply_event({"event": "evaluation", "kind": "actor",
                           "fom": 1.0})
        state.apply_event({"event": "evaluation", "kind": "actor",
                           "fom": 1.5})
        assert state.evaluations == 2
        assert state.best_fom == 1.0
        state.apply_event({"event": "sim_failed"})
        state.apply_event({"event": "lint_rejected"})
        state.apply_event({"event": "round_end", "round": 2,
                           "best_fom": 0.5})
        assert state.failures == 1 and state.lint_rejections == 1
        assert state.rounds == 2 and state.best_fom == 0.5
        state.apply_event({"event": "run_end", "best_fom": 0.25})
        assert state.status == "finished" and state.best_fom == 0.25

    def test_latency_folding(self):
        state = TailState()
        assert state.sim_p50 is None and state.sim_p95 is None
        state.apply_event({"event": "simulated", "kind": "init",
                           "seconds": [0.4, 0.1]})
        state.apply_event({"event": "simulated", "kind": "actor",
                           "seconds": [0.3, 0.2, 0.5]})
        assert state.sim_seconds == [0.4, 0.1, 0.3, 0.2, 0.5]
        assert state.sim_p50 == pytest.approx(0.3)
        assert state.sim_p95 == pytest.approx(0.48)

    def test_render(self):
        state = TailState(run_id="r1", method="MA-Opt", task="sphere4",
                          n_sims_target=8, evaluations=4)
        text = render(state)
        assert "run r1" in text and "4/8 (50%)" in text
        assert "stalled" not in text
        assert "stalled" in render(state, stalled_s=42.0)


class TestTailRun:
    def _run_dir(self, tmp_path):
        run_dir = tmp_path / "r1"
        run_dir.mkdir()
        _append(run_dir / EVENTS,
                {"event": "run_start", "t": 0.0, "run_id": "r1",
                 "method": "MA-Opt", "task": "sphere4", "n_sims": 2},
                {"event": "evaluation", "kind": "actor", "fom": 1.0},
                {"event": "simulated", "kind": "actor", "seconds": [0.3]})
        return run_dir

    def test_once_renders_current_state(self, tmp_path):
        out = io.StringIO()
        state = tail_run(self._run_dir(tmp_path), once=True, out=out)
        assert state.status == "running"
        assert state.evaluations == 1
        assert state.sim_p50 == 0.3
        assert "run r1" in out.getvalue()

    def test_follows_until_run_end(self, tmp_path):
        run_dir = self._run_dir(tmp_path)
        polls = []

        def fake_sleep(_s):
            # the writer appends between polls; run_end stops the loop
            polls.append(1)
            _append(run_dir / EVENTS,
                    {"event": "evaluation", "kind": "actor", "fom": 0.5},
                    {"event": "run_end", "best_fom": 0.5})

        out = io.StringIO()
        state = tail_run(run_dir, poll_s=0.0, out=out, sleep=fake_sleep)
        assert state.status == "finished"
        assert state.evaluations == 2
        assert len(polls) == 1  # resumed from the offset, not from scratch

    def test_max_polls_bounds_the_loop(self, tmp_path):
        out = io.StringIO()
        state = tail_run(self._run_dir(tmp_path), poll_s=0.0, max_polls=3,
                         out=out, sleep=lambda _s: None)
        assert state.status == "running"


class TestStoredRunLatency:
    def test_percentiles_cover_every_kind(self, tmp_path):
        # A seeded MA-Opt run simulates init, actor and ns designs; the
        # tail's p50/p95 are over all of them, not over one kind.
        task = ConstrainedSphere(d=4, seed=0)
        rec = RunStore(tmp_path).create_run(method="MA-Opt", task=task.name)
        cfg = MAOptConfig(seed=0, critic_steps=10, actor_steps=5,
                          batch_size=8, n_elite=5, hidden=(8, 8))
        MAOptimizer(task, cfg, telemetry=rec.telemetry).run(
            n_sims=30, n_init=10)
        simulated = rec.record().events("simulated")
        assert {e["kind"] for e in simulated} == {"init", "actor", "ns"}
        seconds = [s for e in simulated for s in e["seconds"]]
        assert len(seconds) == 40
        state = tail_run(rec.path, once=True, out=io.StringIO())
        assert state.sim_p50 == float(np.percentile(seconds, 50))
        assert state.sim_p95 == float(np.percentile(seconds, 95))


class TestResolveRunDir:
    def test_path_and_store_lookup(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        rec = store.create_run(run_id="20260101-000000-abcdef")
        assert resolve_run_dir(str(rec.path)) == rec.path
        assert resolve_run_dir("20260101",
                               store_root=str(tmp_path / "runs")) == rec.path
        with pytest.raises(KeyError):
            resolve_run_dir("zzz", store_root=str(tmp_path / "runs"))
