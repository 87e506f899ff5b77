"""Unit + integration tests for the run-event stream."""

import ast
import io
import json
import logging
import pathlib
import threading

import numpy as np

import repro
from repro.baselines import RandomSearch
from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.obs import (
    RunLogger,
    RunStore,
    Telemetry,
    Tracer,
    configure_logging,
)
from repro.obs import events as events_module
from repro.obs.tail import tail_run
from tests.resilience.stubs import NaNSphere, failure_reason

FAST = dict(critic_steps=10, actor_steps=5, batch_size=8, n_elite=5,
            hidden=(8, 8))


class TestRunLogger:
    def test_emit_and_filter(self):
        log = RunLogger()
        log.emit("evaluation", fom=1.0)
        log.emit("round_end", round=1)
        log.emit("evaluation", fom=0.5)
        assert len(log) == 3
        assert [e.payload["fom"] for e in log.events("evaluation")] == [1.0, 0.5]
        assert log.events("missing") == []

    def test_kind_key_allowed_in_payload(self):
        log = RunLogger()
        ev = log.emit("evaluation", kind="init")
        assert ev.payload["kind"] == "init"
        assert ev.kind == "evaluation"

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunLogger(path=str(path)) as log:
            log.emit("run_start", method="X")
            log.emit("evaluation", fom=1.25, feasible=True)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in rows] == ["run_start", "evaluation"]
        assert rows[1]["fom"] == 1.25
        assert rows[0]["t"] >= 0

    def test_close_idempotent(self, tmp_path):
        log = RunLogger(path=str(tmp_path / "e.jsonl"))
        log.emit("x")
        log.close()
        log.close()
        assert len(log) == 1  # in-memory events survive close

    def test_logging_mirror(self, caplog):
        log = RunLogger(logger="repro.test", level=logging.INFO)
        with caplog.at_level(logging.INFO, logger="repro.test"):
            log.emit("round_end", round=3, best_fom=0.5)
        assert "round_end" in caplog.text
        assert "best_fom=0.5" in caplog.text

    def test_concurrent_emit_keeps_lines_atomic(self, tmp_path):
        # Several threads share one logger; every JSONL line must stay
        # intact under that contention.
        path = tmp_path / "events.jsonl"
        log = RunLogger(path=str(path))
        n_threads, n_events = 8, 50

        def work(i):
            for j in range(n_events):
                log.emit("evaluation", thread=i, index=j)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(log) == n_threads * n_events
        for i in range(n_threads):
            indices = [r["index"] for r in rows if r["thread"] == i]
            assert indices == list(range(n_events))  # per-thread order kept

    def test_export_jsonl_from_memory(self, tmp_path):
        log = RunLogger()  # no streaming path
        log.emit("run_start", method="X")
        log.emit("run_end", best_fom=0.5)
        path = tmp_path / "dump.jsonl"
        assert log.export_jsonl(str(path)) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in rows] == ["run_start", "run_end"]

    def test_configure_logging_idempotent(self):
        logger = configure_logging("info")
        n = len(logger.handlers)
        assert configure_logging("info") is logger
        assert len(logger.handlers) == n


class TestOptimizerEvents:
    def _run(self, n_sims=6, n_init=8):
        log = RunLogger()
        task = ConstrainedSphere(d=4, seed=0)
        opt = MAOptimizer(task, MAOptConfig(seed=0, **FAST),
                          telemetry=Telemetry(run_logger=log))
        opt.run(n_sims=n_sims, n_init=n_init)
        return log

    def test_one_event_per_simulation(self):
        log = self._run(n_sims=6, n_init=8)
        evals = log.events("evaluation")
        # every simulation (init + post-init) has an event
        assert len(evals) == 8 + 6
        assert sum(e.payload["kind"] != "init" for e in evals) == 6

    def test_round_and_run_envelope(self):
        log = self._run()
        kinds = [e.kind for e in log.events()]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert len(log.events("round_start")) == len(log.events("round_end"))
        end = log.events("run_end")[0].payload
        assert end["n_sims"] == 6
        assert "best_fom" in end and "wall_time_s" in end

    def test_diagnostics_is_view_over_round_end(self):
        task = ConstrainedSphere(d=4, seed=0)
        log = RunLogger()
        opt = MAOptimizer(task, MAOptConfig(seed=0, **FAST),
                          telemetry=Telemetry(run_logger=log))
        opt.initialize(n_init=8)
        opt.step()
        assert opt.diagnostics == [dict(e.payload)
                                   for e in log.events("round_end")]

    def test_default_run_log_carries_rounds_and_result(self):
        # No telemetry: the driver's own run log is the event channel.
        opt = MAOptimizer(ConstrainedSphere(d=4, seed=0),
                          MAOptConfig(seed=0, **FAST))
        result = opt.run(n_sims=6, n_init=8)
        log = opt.run_log
        evals = log.events("evaluation")
        assert sum(e.payload["kind"] != "init" for e in evals) == 6
        assert len(log.events("round_start")) == len(log.events("round_end"))
        assert len(log.events("round_start")) >= 1
        (end,) = log.events("run_end")
        assert end.payload["n_sims"] == result.n_sims
        assert end.payload["best_fom"] == result.best_fom
        assert end.payload["success"] == result.success
        assert end.payload["run_id"] == result.meta["run_id"]

    def test_first_round_end_payload_is_first_diagnostic(self):
        opt = MAOptimizer(ConstrainedSphere(d=4, seed=0),
                          MAOptConfig(seed=0, **FAST))
        opt.initialize(n_init=8)
        opt.step()
        (end,) = opt.run_log.events("round_end")
        assert end.payload["round"] == 1
        assert dict(end.payload) == opt.diagnostics[0]

    def test_events_jsonl_from_full_run(self, tmp_path):
        path = tmp_path / "run_events.jsonl"
        task = ConstrainedSphere(d=4, seed=0)
        opt = MAOptimizer(task, MAOptConfig(seed=0, **FAST),
                          telemetry=Telemetry(
                              run_logger=RunLogger(path=str(path))))
        res = opt.run(n_sims=4, n_init=6)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        n_evals = sum(r["event"] == "evaluation" for r in rows)
        assert n_evals >= res.n_sims  # >= 1 JSONL event per simulation


class TestBaselineEvents:
    def test_one_round_per_simulation(self):
        opt = RandomSearch(ConstrainedSphere(d=4, seed=0), seed=0)
        opt.run(n_sims=5, n_init=6)
        log = opt.run_log
        assert RandomSearch.method_name == "Random"
        for kind in ("round_start", "round_end"):
            rounds = log.events(kind)
            assert len(rounds) == 5
            assert [e.payload["round"] for e in rounds] == [1, 2, 3, 4, 5]
            assert all(e.payload["kind"] == "Random" for e in rounds)
        ends = log.events("round_end")
        evals = [e for e in log.events("evaluation")
                 if e.payload["kind"] == "Random"]
        assert [e.payload["fom"] for e in ends] == \
            [e.payload["fom"] for e in evals]
        assert log.events("run_end")

    def test_stored_run_tails_its_rounds(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        rec = RunStore(tmp_path).create_run(method="Random", task=task.name)
        RandomSearch(task, seed=0, telemetry=rec.telemetry).run(
            n_sims=5, n_init=6)
        state = tail_run(rec.path, once=True, out=io.StringIO())
        assert state.status == "finished"
        assert state.rounds == 5
        # every simulation's seconds: the 6 initial designs and 5 rounds
        assert len(state.sim_seconds) == 11


class TestExecutorEventsReachRunLog:
    def _run(self, telemetry):
        task = NaNSphere(d=4, seed=0)
        cfg = MAOptConfig(seed=0, **FAST)
        opt = MAOptimizer(task, cfg, telemetry=telemetry)
        x_init = task.space.sample(np.random.default_rng(123), 10)
        result = opt.run(n_sims=15, x_init=x_init)
        evaluated = [*x_init, *(r.x for r in result.records)]
        return opt, sum(failure_reason(u) is not None for u in evaluated)

    def test_sim_failed_without_a_telemetry_logger(self):
        traced, n_failed = self._run(Telemetry(tracer=Tracer()))
        assert n_failed > 0
        assert len(traced.run_log.events("sim_failed")) == n_failed
        # default telemetry: the same seeded run, no bundle at all
        plain, _ = self._run(None)
        assert len(plain.run_log.events("sim_failed")) == n_failed


class TestRunIds:
    def test_shared_bundle_runs_get_distinct_ids(self):
        tracer = Tracer()
        shared = Telemetry(tracer=tracer)
        ids = [RandomSearch(ConstrainedSphere(d=4, seed=0), seed=s,
                            telemetry=shared).run(n_sims=2, n_init=3)
               .meta["run_id"] for s in range(2)]
        assert len(set(ids)) == 2
        assert [span.attrs["run_id"] for span in tracer.find("run")] == ids
        assert shared.run_id is None  # the caller's bundle is not written


def _documented_kinds() -> set[str]:
    """Event kinds in the first column of the events module's table."""
    lines = events_module.__doc__.splitlines()
    rules = [i for i, ln in enumerate(lines) if ln.startswith("====")]
    rows = lines[rules[1] + 1:rules[2]]
    return {ln.split()[0] for ln in rows if ln[:1].strip()}


def _emitted_kinds() -> set[str]:
    """String literals passed first to any ``.emit(`` call in the package."""
    kinds = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                kinds.add(node.args[0].value)
    return kinds


class TestEventVocabulary:
    def test_every_emitted_kind_is_documented(self):
        emitted = _emitted_kinds()
        assert {"run_start", "evaluation", "sim_failed"} <= emitted
        assert emitted - _documented_kinds() == set()
