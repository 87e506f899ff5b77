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
        assert len(record.metric_snapshots()) >= 1  # one per round end
        assert record.final_metrics()["counters"]
        rows = record.trace_rows()
        assert any(r["name"] == "run" for r in rows)
        assert any(r["name"] == "simulate" for r in rows)

    def test_abandoned_run_stays_visible(self, tmp_path):
        store = RunStore(tmp_path)
        rec = store.create_run(method="MA-Opt", task="t")
        record = store.load(rec.run_id)
        assert record.manifest["status"] == "running"
        assert record.trace_rows() == []
        assert record.final_metrics() == {}

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
        assert rec.telemetry.metrics is not None


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

    def test_bundle_and_format_routing(self, tmp_path):
        store = RunStore(tmp_path)
        rec, _ = _finished_run(store)
        doc = json.loads(export_run(rec.record()))
        assert doc["schema"] == "repro.obs/run-export"
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
