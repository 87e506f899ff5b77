"""Durable run store: recorder lifecycle, round-trip, lookup, exporters."""

import json

import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.obs import RunRecord, RunStore, Telemetry, Tracer, new_run_id
from repro.obs.store import (
    diff_runs,
    ensure_valid_manifest,
    event_counts,
    export_run,
    validate_manifest,
)

FAST = dict(critic_steps=10, actor_steps=5, batch_size=8, n_elite=5,
            hidden=(8, 8))


def _finished_run(store, seed=0, n_sims=6, method="MA-Opt"):
    task = ConstrainedSphere(d=4, seed=seed)
    rec = store.create_run(method=method, task=task.name,
                           meta={"seed": seed})
    opt = MAOptimizer(task, MAOptConfig(seed=seed, **FAST),
                      telemetry=rec.telemetry)
    result = opt.run(n_sims=n_sims, n_init=6)
    return rec, result


class TestRunId:
    def test_shape_and_uniqueness(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        stamp, _, suffix = a.rpartition("-")
        assert len(stamp) == 15 and len(suffix) == 6


class TestManifestSchema:
    def test_valid_manifest_passes(self, tmp_path):
        store = RunStore(tmp_path)
        rec, _ = _finished_run(store)
        assert validate_manifest(rec.record().manifest) == []

    def test_bad_docs_are_rejected(self):
        assert validate_manifest([]) != []
        assert any("schema" in p for p in validate_manifest({}))
        with pytest.raises(ValueError, match="bad status"):
            ensure_valid_manifest({"schema": "repro.obs/run",
                                   "schema_version": 1,
                                   "run_id": "x", "status": "bogus"})


class TestRoundTrip:
    def test_finished_run_record(self, tmp_path):
        store = RunStore(tmp_path)
        rec, result = _finished_run(store)
        record = store.load(rec.run_id)
        m = record.manifest
        assert m["status"] == "finished"
        assert m["n_sims"] == len(result.records)
        assert m["best_fom"] == pytest.approx(result.best_fom)
        assert m["wall_time_s"] > 0
        assert result.meta["run_id"] == rec.run_id
        # streamed events and finalize-time artifacts are all readable
        assert record.events("run_start")[0]["run_id"] == rec.run_id
        assert record.events("run_end")
        assert record.events("simulated")
        # the events and the trace are the whole record
        assert sorted(p.name for p in record.path.iterdir()) == [
            "events.jsonl", "manifest.json", "trace.jsonl"]
        rows = record.trace_rows()
        assert any(r["name"] == "run" for r in rows)
        assert any(r["name"] == "simulate" for r in rows)

    def test_abandoned_run_stays_visible(self, tmp_path):
        store = RunStore(tmp_path)
        rec = store.create_run(method="MA-Opt", task="t")
        record = store.load(rec.run_id)
        assert record.manifest["status"] == "running"
        assert record.trace_rows() == []
        assert record.events() == []

    def test_mark_failed(self, tmp_path):
        store = RunStore(tmp_path)
        rec = store.create_run(method="MA-Opt", task="t")
        rec.mark_failed("ValueError('boom')")
        m = rec.record().manifest
        assert m["status"] == "failed"
        assert "boom" in m["error"]

    def test_finalize_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        rec, _ = _finished_run(store)
        before = rec.record().manifest
        rec.finalize()
        rec.mark_failed("late")  # must not overwrite the sealed record
        assert rec.record().manifest == before

    def test_base_telemetry_channels_are_reused(self, tmp_path):
        tracer = Tracer()
        base = Telemetry(tracer=tracer)
        rec = RunStore(tmp_path).create_run(base=base)
        assert rec.telemetry.tracer is tracer
        assert rec.telemetry.run_id == rec.run_id
        assert rec.telemetry.run_logger is not None


class TestStoreLookup:
    def test_list_and_resolve_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.create_run(run_id="20260101-000000-aaaaaa")
        store.create_run(run_id="20260102-000000-bbbbbb")
        assert store.run_ids() == ["20260101-000000-aaaaaa",
                                   "20260102-000000-bbbbbb"]
        assert store.load("20260101").run_id == a.run_id
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve("2026010")
        with pytest.raises(KeyError, match="no run matching"):
            store.resolve("nope")

    def test_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "missing")
        assert store.run_ids() == []
        assert store.list_runs() == []


class TestDiffAndExport:
    def test_diff_runs(self, tmp_path):
        store = RunStore(tmp_path)
        ra, _ = _finished_run(store, seed=0)
        rb, _ = _finished_run(store, seed=1, n_sims=9)
        diff = diff_runs(ra.record(), rb.record())
        assert diff["fields"]["n_sims"]["delta"] == 3
        assert "best_fom" in diff["fields"]
        assert "status" not in diff["fields"]  # identical fields are elided

    def test_diff_counts_events_by_kind(self, tmp_path):
        store = RunStore(tmp_path)
        ra, _ = _finished_run(store, seed=0)
        rb, _ = _finished_run(store, seed=0, n_sims=9)
        a, b = ra.record(), rb.record()
        assert diff_runs(a, a)["events"] == {}
        events = diff_runs(a, b)["events"]
        # the same 6 initial designs, then 3 more proposals
        assert "evaluation{kind=init}" not in events
        evals = {k: v for k, v in events.items()
                 if k.startswith("evaluation{")}
        assert evals and sum(v["delta"] for v in evals.values()) == 3
        for key, entry in events.items():
            assert entry["a"] == event_counts(a.events()).get(key, 0)
            assert entry["b"] == event_counts(b.events()).get(key, 0)
            assert entry["delta"] == entry["b"] - entry["a"]

    def test_event_counts_split_by_kind(self):
        rows = [{"event": "evaluation", "kind": "init"},
                {"event": "evaluation", "kind": "actor"},
                {"event": "evaluation", "kind": "actor"},
                {"event": "sim_failed", "kind": "ns"},
                {"event": "lint_rejected", "kind": "init"},
                {"event": "simulated", "kind": "actor", "seconds": [0.1]},
                {"event": "round_end", "kind": "actor"}]
        assert event_counts(rows) == {
            "evaluation{kind=actor}": 2,
            "evaluation{kind=init}": 1,
            "lint_rejected{kind=init}": 1,
            "round_end": 1,
            "sim_failed{kind=ns}": 1,
            "simulated": 1,
        }

    def test_bundle_and_format_routing(self, tmp_path):
        store = RunStore(tmp_path)
        rec, _ = _finished_run(store)
        doc = json.loads(export_run(rec.record()))
        assert doc["schema"] == "repro.obs/run-export"
        assert doc["schema_version"] == 2
        assert sorted(doc) == ["events", "manifest", "schema",
                               "schema_version", "trace"]
        assert doc["manifest"]["run_id"] == rec.run_id
        assert doc["events"] and doc["trace"]


class TestComparisonIntegration:
    def test_run_comparison_records_each_cell(self, tmp_path):
        from repro.experiments.runner import run_comparison

        store = RunStore(tmp_path)
        task = ConstrainedSphere(d=4, seed=0)
        run_comparison(task, ["Random", "MA-Opt"], n_runs=1, n_sims=5,
                       n_init=5, seed=0, maopt_overrides=FAST,
                       run_store=store)
        records = store.list_runs()
        assert sorted(r.manifest["method"] for r in records) == \
            ["MA-Opt", "Random"]
        assert all(r.manifest["status"] == "finished" for r in records)
        assert all(r.manifest["meta"]["repeat"] == 0 for r in records)

    def test_each_cell_traces_only_its_own_run(self, tmp_path):
        # One tracer serves every cell (as with compare --trace-out); a
        # cell's stored trace must hold its own run span only.
        from repro.experiments.runner import run_comparison

        store = RunStore(tmp_path)
        tracer = Tracer()
        run_comparison(ConstrainedSphere(d=4, seed=0), ["Random", "MA-Opt"],
                       n_runs=1, n_sims=5, n_init=5, seed=0,
                       maopt_overrides=FAST,
                       telemetry=Telemetry(tracer=tracer), run_store=store)
        for record in store.list_runs():
            roots = [r for r in record.trace_rows() if r["parent_id"] is None]
            assert [(r["name"], r["attrs"].get("method")) for r in roots] == \
                [("run", record.manifest["method"])]
            assert record.manifest["n_spans"] == len(record.trace_rows())
        # the shared tracer still holds every span
        assert sorted(s.attrs["method"] for s in tracer.find("run")) == \
            ["MA-Opt", "Random"]
