"""Tests for job specs, validation, scheduling policy and JobManager.

The manager tests inject a stub runner so scheduling, cancellation,
timeout and resume are exercised without real optimization runs; the
end-to-end path (real MA-Opt runs over the socket) lives in
``test_server.py``.
"""

import json
import threading
import time

import pytest

from repro.analysis.diagnostics import Severity, has_errors
from repro.core.config import ServeConfig
from repro.serve.jobs import (
    Job,
    JobManager,
    JobValidationError,
    build_config,
    canonical_spec,
    select_next,
    spec_hash,
    validate_job,
)

VALID = {"task": "sphere"}


def rules(diags):
    return {d.rule for d in diags}


def errors(diags):
    return [d for d in diags if d.severity >= Severity.ERROR]


class TestCanonicalSpec:
    def test_defaults_filled(self):
        spec = canonical_spec({"task": "sphere"})
        assert spec["schema"] == "repro.serve/job"
        assert spec["schema_version"] == 1
        assert spec["method"] == "MA-Opt"
        assert spec["n_sims"] == 60 and spec["n_init"] == 40
        assert spec["priority"] == "normal"
        assert spec["tenant"] == "default"
        assert spec["timeout_s"] is None
        assert spec["overrides"] == {}

    def test_key_order_and_defaults_do_not_change_identity(self):
        a = {"task": "sphere", "seed": 0, "method": "MA-Opt"}
        b = {"method": "MA-Opt", "task": "sphere"}
        assert canonical_spec(a) == canonical_spec(b)
        assert spec_hash(a) == spec_hash(b)

    def test_hash_is_content_sensitive(self):
        assert spec_hash({"task": "sphere"}) \
            != spec_hash({"task": "sphere", "seed": 1})

    def test_hash_is_stable_hex(self):
        h = spec_hash(VALID)
        assert h == spec_hash(dict(VALID))
        assert len(h) == 64
        int(h, 16)  # hex digest


class TestValidateJob:
    def test_valid_spec_has_no_errors(self):
        assert not errors(validate_job(VALID))

    def test_non_mapping_rejected(self):
        diags = validate_job([1, 2])
        assert rules(diags) == {"job.schema"}

    def test_wrong_schema_version(self):
        diags = validate_job({"task": "sphere", "schema_version": 99})
        assert "job.schema" in rules(diags)

    def test_unknown_task(self):
        assert "job.task" in rules(validate_job({"task": "resistor"}))

    def test_unknown_method(self):
        diags = validate_job({"task": "sphere", "method": "SGD"})
        assert "job.method" in rules(diags)

    @pytest.mark.parametrize("field", ["n_sims", "n_init"])
    @pytest.mark.parametrize("bad", [0, -3, 1.5, "40", True])
    def test_bad_budget(self, field, bad):
        diags = validate_job({"task": "sphere", field: bad})
        assert "job.budget" in rules(diags)

    def test_unknown_priority(self):
        diags = validate_job({"task": "sphere", "priority": "urgent"})
        assert "job.priority" in rules(diags)

    @pytest.mark.parametrize("tenant", ["", "   ", 7, None, "../x", "a/b",
                                        "..", ".hidden", "x" * 65])
    def test_bad_tenant(self, tenant):
        diags = validate_job({"task": "sphere", "tenant": tenant})
        assert "job.tenant" in rules(diags)

    @pytest.mark.parametrize("timeout", [0, -1, "10", True])
    def test_bad_timeout(self, timeout):
        diags = validate_job({"task": "sphere", "timeout_s": timeout})
        assert "job.timeout" in rules(diags)

    def test_timeout_null_and_positive_ok(self):
        assert not errors(validate_job({"task": "sphere",
                                        "timeout_s": None}))
        assert not errors(validate_job({"task": "sphere",
                                        "timeout_s": 0.5}))

    def test_unknown_override_field(self):
        diags = validate_job({"task": "sphere",
                              "overrides": {"learning_momentum": 3}})
        assert "job.overrides" in rules(diags)

    def test_resilience_override_rejected(self):
        diags = validate_job({"task": "sphere",
                              "overrides": {"resilience": {}}})
        assert any(d.rule == "job.overrides"
                   and "resilience" in (d.location or "")
                   for d in diags)

    def test_overrides_on_baseline_method_rejected(self):
        diags = validate_job({"task": "sphere", "method": "Random",
                              "overrides": {"n_elite": 4}})
        assert "job.overrides" in rules(diags)

    def test_cfg_rules_compose_with_job_budget(self):
        # n_elite larger than the job's whole budget: the optimizer
        # config cross-check fires at submit time with the job's numbers.
        diags = validate_job({"task": "sphere", "n_sims": 4, "n_init": 4,
                              "overrides": {"n_elite": 50}})
        assert "cfg.elite-vs-budget" in rules(diags)
        assert has_errors(diags)

    def test_build_config_applies_override_layering(self):
        config = build_config(canonical_spec(
            {"task": "sphere", "seed": 7, "overrides": {"n_elite": 9}}))
        assert config.n_elite == 9
        assert config.seed == 7

    def test_build_config_seed_override_wins(self):
        config = build_config(canonical_spec(
            {"task": "sphere", "seed": 7, "overrides": {"seed": 11}}))
        assert config.seed == 11


class TestJobRecord:
    def test_round_trip(self):
        job = Job(job_id="job-000003-abcd1234",
                  spec=canonical_spec(VALID), state="finished",
                  attempt=2, run_ids=["a", "a-r2"],
                  summary={"best_fom": 1.0}, submitted_unix=5.0,
                  updated_unix=9.0)
        clone = Job.from_record(job.record())
        assert clone.record() == job.record()

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            Job.from_record({"schema": "something/else"})


def mk(job_id, priority="normal", tenant="default"):
    return Job(job_id=job_id, spec=canonical_spec(
        {"task": "sphere", "priority": priority, "tenant": tenant}))


class TestSelectNext:
    def test_fifo_within_lane(self):
        queued = [mk("j1"), mk("j2")]
        assert select_next(queued, {}, 2) is queued[0]

    def test_priority_beats_fifo(self):
        queued = [mk("j1", "low"), mk("j2", "normal"), mk("j3", "high")]
        assert select_next(queued, {}, 2).job_id == "j3"

    def test_capped_tenant_is_skipped(self):
        queued = [mk("j1", tenant="acme"), mk("j2", tenant="other")]
        assert select_next(queued, {"acme": 2}, 2).job_id == "j2"

    def test_capped_high_lane_does_not_block_lower_lane(self):
        queued = [mk("j1", "high", tenant="acme"),
                  mk("j2", "low", tenant="other")]
        assert select_next(queued, {"acme": 1}, 1).job_id == "j2"

    def test_nothing_runnable(self):
        assert select_next([], {}, 2) is None
        assert select_next([mk("j1", tenant="acme")], {"acme": 1}, 1) \
            is None


def instant_runner(manager, job, recorder, should_stop):
    return None, ""


def blocking_runner(manager, job, recorder, should_stop):
    while True:
        reason = should_stop()
        if reason:
            return None, reason
        time.sleep(0.005)


def manager_on(tmp_path, runner=instant_runner, **cfg):
    cfg.setdefault("poll_s", 0.01)
    return JobManager(tmp_path / "serve", config=ServeConfig(**cfg),
                      task_factory=lambda spec: None, runner=runner)


class TestJobManager:
    def test_submit_rejects_invalid_spec(self, tmp_path):
        manager = manager_on(tmp_path)
        with pytest.raises(JobValidationError) as err:
            manager.submit({"task": "resistor"})
        assert any(d.rule == "job.task" for d in err.value.diagnostics)

    def test_job_ids_are_deterministic_across_fresh_roots(self, tmp_path):
        specs = [{"task": "sphere"}, {"task": "sphere", "seed": 1},
                 {"task": "sphere", "priority": "high"}]
        ids = []
        for root in ("a", "b"):
            manager = manager_on(tmp_path / root)
            ids.append([manager.submit(s)["job_id"] for s in specs])
        assert ids[0] == ids[1]
        assert ids[0][0].startswith("job-000001-")
        assert ids[0][1].startswith("job-000002-")
        # spec identity is in the suffix
        assert ids[0][0].split("-")[-1] != ids[0][1].split("-")[-1]

    def test_record_is_durable_on_submit(self, tmp_path):
        manager = manager_on(tmp_path)
        record = manager.submit(VALID)
        path = manager.jobs_dir / f"{record['job_id']}.json"
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["schema"] == "repro.serve/job-record"
        assert on_disk["state"] == "queued"
        assert on_disk["spec"] == canonical_spec(VALID)

    def test_run_to_finished(self, tmp_path):
        with manager_on(tmp_path) as manager:
            job_id = manager.submit(VALID)["job_id"]
            record = manager.wait(job_id, timeout=10)
        assert record["state"] == "finished"
        assert record["attempt"] == 1
        assert record["run_ids"] == [job_id]
        # the attempt's run record landed in the shared run store
        manifest = json.loads(
            (manager.store.root / job_id / "manifest.json")
            .read_text(encoding="utf-8"))
        assert manifest["meta"]["job_id"] == job_id

    def test_status_by_unique_prefix(self, tmp_path):
        manager = manager_on(tmp_path)
        job_id = manager.submit(VALID)["job_id"]
        assert manager.status(job_id[:10])["job_id"] == job_id
        manager.submit({"task": "sphere", "seed": 1})
        with pytest.raises(KeyError, match="ambiguous"):
            manager.status("job-")
        with pytest.raises(KeyError, match="unknown"):
            manager.status("job-999999")

    def test_tenant_cap_limits_concurrency(self, tmp_path):
        running = []
        peak = []
        lock = threading.Lock()

        def counting_runner(manager, job, recorder, should_stop):
            with lock:
                running.append(job.tenant)
                peak.append(running.count("acme"))
            time.sleep(0.05)
            with lock:
                running.remove(job.tenant)
            return None, ""

        with manager_on(tmp_path, runner=counting_runner, max_workers=3,
                        tenant_cap=1) as manager:
            ids = [manager.submit({"task": "sphere", "seed": i,
                                   "tenant": "acme"})["job_id"]
                   for i in range(4)]
            for job_id in ids:
                assert manager.wait(job_id, timeout=20)["state"] \
                    == "finished"
        assert max(peak) == 1  # never two acme jobs at once

    def test_cancel_queued_job(self, tmp_path):
        manager = manager_on(tmp_path)  # workers never started
        job_id = manager.submit(VALID)["job_id"]
        record = manager.cancel(job_id)
        assert record["state"] == "cancelled"
        assert record["run_ids"] == []  # never ran
        on_disk = json.loads(
            (manager.jobs_dir / f"{job_id}.json")
            .read_text(encoding="utf-8"))
        assert on_disk["state"] == "cancelled"

    def test_cancel_running_job(self, tmp_path):
        with manager_on(tmp_path, runner=blocking_runner) as manager:
            job_id = manager.submit(VALID)["job_id"]
            deadline = time.monotonic() + 10
            while manager.status(job_id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            manager.cancel(job_id)
            record = manager.wait(job_id, timeout=10)
        assert record["state"] == "cancelled"
        manifest = json.loads(
            (manager.store.root / job_id / "manifest.json")
            .read_text(encoding="utf-8"))
        assert manifest["status"] == "cancelled"

    def test_timeout_fails_job(self, tmp_path):
        with manager_on(tmp_path, runner=blocking_runner) as manager:
            job_id = manager.submit(
                {"task": "sphere", "timeout_s": 0.2})["job_id"]
            record = manager.wait(job_id, timeout=10)
        assert record["state"] == "failed"
        assert record["error"] == "stopped: timeout after 0.2s"

    def test_runner_crash_fails_job_not_pool(self, tmp_path):
        def crashing_runner(manager, job, recorder, should_stop):
            raise RuntimeError("boom")

        with manager_on(tmp_path, runner=crashing_runner) as manager:
            first = manager.submit(VALID)["job_id"]
            record = manager.wait(first, timeout=10)
            assert record["state"] == "failed"
            assert "boom" in record["error"]
            # the pool survives: swap in a good runner and run again
            manager._runner = instant_runner
            second = manager.submit({"task": "sphere", "seed": 1})["job_id"]
            assert manager.wait(second, timeout=10)["state"] == "finished"

    def test_shutdown_interrupts_running_job(self, tmp_path):
        manager = manager_on(tmp_path, runner=blocking_runner)
        manager.start()
        job_id = manager.submit(VALID)["job_id"]
        deadline = time.monotonic() + 10
        while manager.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        manager.close()
        assert manager.status(job_id)["state"] == "interrupted"

    def test_resume_requeues_unfinished_jobs(self, tmp_path):
        manager = manager_on(tmp_path)  # never started: jobs stay queued
        queued = manager.submit(VALID)["job_id"]
        interrupted = manager.submit({"task": "sphere", "seed": 1})["job_id"]
        done = manager.submit({"task": "sphere", "seed": 2})["job_id"]
        # simulate prior-process outcomes on disk
        for job_id, state in ((interrupted, "interrupted"),
                              (done, "finished")):
            job = manager._get(job_id)
            job.state = state
            manager._persist(job)
        manager.close()

        fresh = manager_on(tmp_path)
        requeued = fresh.resume()
        assert requeued == [queued, interrupted]
        assert fresh.status(done)["state"] == "finished"
        # sequence counter restored: no ID collision with old jobs
        new_id = fresh.submit({"task": "sphere", "seed": 3})["job_id"]
        assert new_id.startswith("job-000004-")
        fresh.start()
        for job_id in (queued, interrupted):
            assert fresh.wait(job_id, timeout=10)["state"] == "finished"
        fresh.close()

    def test_resume_is_idempotent_for_loaded_jobs(self, tmp_path):
        manager = manager_on(tmp_path)
        manager.submit(VALID)
        manager.close()
        fresh = manager_on(tmp_path)
        first = fresh.resume()
        assert len(first) == 1
        assert fresh.resume() == []  # already loaded

    def test_submit_after_shutdown_refused(self, tmp_path):
        manager = manager_on(tmp_path)
        manager.close()
        with pytest.raises(RuntimeError, match="shutting down"):
            manager.submit(VALID)

    def test_counts_and_list_filters(self, tmp_path):
        manager = manager_on(tmp_path)
        a = manager.submit({"task": "sphere", "tenant": "acme"})["job_id"]
        manager.submit({"task": "sphere", "tenant": "beta"})
        manager.cancel(a)
        assert manager.counts() == {"queued": 1, "cancelled": 1}
        assert [r["job_id"] for r in manager.list_jobs(tenant="acme")] \
            == [a]
        assert [r["state"] for r in manager.list_jobs(state="queued")] \
            == ["queued"]
