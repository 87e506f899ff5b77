"""Tests for the newer CLI features (corners, report, run export)."""

import json
import pathlib

import pytest

from repro.cli import main


class TestCornerFlag:
    def test_corner_accepted(self, capsys):
        assert main(["--corner", "ss", "describe", "ota"]) == 0
        out = capsys.readouterr().out
        assert "minimize power" in out

    def test_invalid_corner_rejected(self):
        with pytest.raises(SystemExit):
            main(["--corner", "typ", "describe", "ota"])


class TestReportCommand:
    def test_report_written(self, tmp_path, capsys):
        (tmp_path / "table1_ota_params.txt").write_text("BODY")
        out_file = tmp_path / "R.md"
        rc = main(["report", "--results", str(tmp_path),
                   "--output", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "BODY" in out_file.read_text()


class TestObservabilityFlags:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["optimize", "sphere", "--log-level", "debug",
             "--trace-out", "t.jsonl", "--events-out", "e.jsonl"])
        assert args.log_level == "debug"
        assert args.trace_out == "t.jsonl"
        assert args.events_out == "e.jsonl"

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    def test_metrics_flag_is_gone(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "sphere", "--sims", "4", "--init", "6",
                  "--metrics-out", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metrics-out" in \
            capsys.readouterr().err

    def test_optimize_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(["optimize", "sphere", "--sims", "4", "--init", "6",
                   "--trace-out", str(trace)])
        assert rc == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in rows}
        assert {"run", "critic-train", "actor-train", "simulate"} <= names
        out = capsys.readouterr().out
        assert "wall-time breakdown" in out
        assert "100.0" in out

    def test_optimize_events_out(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        rc = main(["optimize", "sphere", "--sims", "4", "--init", "6",
                   "--events-out", str(events)])
        assert rc == 0
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        assert sum(r["event"] == "evaluation" for r in rows) >= 4
        assert sum(len(r["seconds"]) for r in rows
                   if r["event"] == "simulated" and r["kind"] == "actor") >= 1

    def test_compare_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(["compare", "sphere", "--methods", "Random",
                   "--runs", "1", "--sims", "3", "--init", "6",
                   "--quiet", "--trace-out", str(trace)])
        assert rc == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {r["name"] for r in rows} >= {"run", "simulate"}


class TestResilienceFlags:
    def test_run_with_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.npz"
        rc = main(["optimize", "sphere", "--method", "MA-Opt1",
                   "--sims", "8", "--init", "8",
                   "--checkpoint", str(ckpt), "--checkpoint-every", "2"])
        assert rc == 0 and ckpt.exists()
        rc = main(["optimize", "sphere", "--method", "MA-Opt1",
                   "--sims", "12", "--init", "8",
                   "--resume", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from" in out

    def test_checkpoint_is_the_run_archive(self, tmp_path, capsys):
        from repro.core.driver import load_result

        out = tmp_path / "run.npz"
        rc = main(["optimize", "sphere", "--sims", "4", "--init", "6",
                   "--method", "Random", "--checkpoint", str(out)])
        assert rc == 0
        loaded = load_result(out)
        assert loaded.method == "Random"
        assert loaded.n_sims == 4

    def test_save_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--sims", "4", "--init", "6",
                  "--save", str(tmp_path / "run.npz")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --save" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["BO", "PPO"])
    def test_baselines_checkpoint_and_resume(self, method, tmp_path,
                                             capsys):
        from repro.resilience.checkpoint import load_checkpoint

        ckpt = tmp_path / "ck.npz"
        assert main(["optimize", "sphere", "--method", method,
                     "--sims", "6", "--init", "8",
                     "--checkpoint", str(ckpt),
                     "--checkpoint-every", "2"]) == 0
        assert main(["optimize", "sphere", "--method", method,
                     "--sims", "10", "--resume", str(ckpt)]) == 0
        assert "resumed from" in capsys.readouterr().out
        assert len(load_checkpoint(ckpt)[1]["records/fom"]) == 10

    @pytest.mark.parametrize("method", ["Random", "MA-Opt", "DNN-Opt"])
    def test_resume_with_another_method_exits_two(self, method, tmp_path,
                                                  capsys):
        ckpt = tmp_path / "ck.npz"
        assert main(["optimize", "sphere", "--method", "MA-Opt1",
                     "--sims", "3", "--init", "6",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--method", method,
                  "--sims", "6", "--resume", str(ckpt)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --resume ")
        assert "MA-Opt1" in err

    def test_resume_missing_file_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--method", "BO", "--sims", "4",
                  "--resume", str(tmp_path / "none.npz")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("repro: error: --resume ")

    @pytest.mark.parametrize("flags", [
        ["--checkpoint-every", "2"], ["--checkpoint-every", "0"],
        ["--checkpoint-every", "-1", "--checkpoint", "ck.npz"]])
    def test_bad_checkpoint_every_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--sims", "4", "--init", "4",
                  *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: --checkpoint-every")

    def test_unwritable_checkpoint_exits_before_simulating(self, tmp_path,
                                                           capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--sims", "4", "--init", "4",
                  "--checkpoint", str(blocker / "ck.npz")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "repro: error: cannot create checkpoint directory")
        assert "init + 4 sims" not in captured.out  # no run started

    @pytest.mark.parametrize("flags", [
        ["--sims", "0"], ["--sims", "-1"], ["--init", "0"]])
    def test_budget_below_one_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--sims", "4", "--init", "4",
                  *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            f"repro: error: {flags[0]} must be >= 1")

    @pytest.mark.parametrize("flags", [
        ["--parallel"], ["--heartbeat", "1"], ["--sim-timeout", "5"]])
    def test_process_pool_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--sims", "4", "--init", "4",
                  *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--sims", "0", "--init", "0"], "--sims must be >= 1"),
        (["--runs", "0"], "--runs must be >= 1"),
        (["--methods", ""], "--methods names no method"),
        (["--methods", "Random,Bogus"], "--methods: unknown method 'Bogus'"),
    ], ids=["budget", "runs", "no-methods", "unknown-method"])
    def test_compare_checks_inputs_before_simulating(self, flags, message,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "sphere", "--methods", "Random", "--runs", "1",
                  "--sims", "4", "--init", "4", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro: error: {message}")
        assert captured.out == ""  # nothing simulated

    def test_optimize_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "sphere", "--method", "Bogus",
                  "--sims", "4", "--init", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: --method: unknown method 'Bogus'")

    def test_compare_checkpoint_dir(self, tmp_path, capsys):
        cmd = ["compare", "sphere", "--methods", "Random",
               "--runs", "1", "--sims", "4", "--init", "6",
               "--checkpoint-dir", str(tmp_path / "cmp")]
        assert main(cmd) == 0
        assert (tmp_path / "cmp" / "Random_run0.npz").exists()
        assert main(cmd) == 0  # resumes from the archive
        assert "restored from checkpoint" in capsys.readouterr().out


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """(store dir, run id) of one small finished run."""
    from repro.obs import RunStore

    store = tmp_path_factory.mktemp("runs")
    assert main(["optimize", "sphere", "--sims", "4", "--init", "6",
                 "--store", str(store)]) == 0
    return str(store), RunStore(store).run_ids()[-1]


class TestRunsExport:
    def test_export_is_the_json_bundle(self, stored_run, tmp_path, capsys):
        store, run_id = stored_run
        out = tmp_path / "run.json"
        assert main(["runs", "export", run_id, "--store", store,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs/run-export"
        assert doc["manifest"]["run_id"] == run_id
        assert f"wrote export of {run_id}" in capsys.readouterr().out

    def test_unwritable_output_is_a_clean_error(self, stored_run, tmp_path):
        store, run_id = stored_run
        target = tmp_path / "no-such-dir" / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "export", run_id, "--store", store,
                  "--output", str(target)])
        assert str(excinfo.value).startswith(
            f"repro: error: cannot write {target}: ")

    def test_format_option_is_gone(self, stored_run, capsys):
        store, run_id = stored_run
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "export", run_id, "--store", store,
                  "--format", "prom"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRunsDiff:
    def test_run_against_itself(self, stored_run, capsys):
        store, run_id = stored_run
        assert main(["runs", "diff", run_id, run_id, "--store", store]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_event_counts_are_compared(self, stored_run, tmp_path, capsys):
        import shutil

        from repro.obs import RunStore

        store, run_id = stored_run
        root = tmp_path / "runs"
        shutil.copytree(pathlib.Path(store) / run_id, root / run_id)
        assert main(["optimize", "sphere", "--sims", "6", "--init", "6",
                     "--store", str(root)]) == 0
        other = [r for r in RunStore(root).run_ids() if r != run_id][0]
        capsys.readouterr()
        assert main(["runs", "diff", run_id, other,
                     "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "n_sims: 4 -> 6  (delta +2)" in out
        assert "events evaluation{kind=actor}: 4 -> 6 (delta +2)" in out
        assert "evaluation{kind=init}" not in out  # both simulate 6


class TestRunDirectoryWithMetricFiles:
    """Run directories written before the metric files were dropped hold
    ``metrics.json`` and a ``metrics`` JSONL stream; they still load."""

    @pytest.fixture
    def legacy_run(self, stored_run, tmp_path):
        import shutil

        store, run_id = stored_run
        run_dir = tmp_path / "runs" / run_id
        shutil.copytree(pathlib.Path(store) / run_id, run_dir)
        snapshot = {"counters": {"sims_total{kind=actor}": 4.0},
                    "gauges": {"best_fom": 1.0}, "histograms": {}}
        for ext in ("json", "jsonl"):
            (run_dir / f"metrics.{ext}").write_text(
                json.dumps(snapshot) + "\n", encoding="utf-8")
        return str(tmp_path / "runs"), run_id

    def test_runs_commands_and_tail(self, legacy_run, tmp_path, capsys):
        store, run_id = legacy_run
        assert main(["runs", "list", "--store", store]) == 0
        assert run_id in capsys.readouterr().out
        assert main(["runs", "show", run_id, "--store", store]) == 0
        assert "evaluation{kind=init}" in capsys.readouterr().out
        assert main(["runs", "diff", run_id, run_id, "--store", store]) == 0
        assert "(no differences)" in capsys.readouterr().out
        out = tmp_path / "run.json"
        assert main(["runs", "export", run_id, "--store", store,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema_version"] == 2 and doc["events"]
        capsys.readouterr()
        assert main(["tail", run_id, "--store", store, "--once"]) == 0
        text = capsys.readouterr().out
        assert "[finished]" in text
        assert "p50 -s" not in text  # latency comes from the events
