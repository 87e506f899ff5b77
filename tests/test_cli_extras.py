"""Tests for the newer CLI features (corners, report)."""

import json

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
             "--trace-out", "t.jsonl", "--metrics-out", "m.csv",
             "--events-out", "e.jsonl"])
        assert args.log_level == "debug"
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.csv"
        assert args.events_out == "e.jsonl"

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

    def test_optimize_metrics_and_events_out(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        rc = main(["optimize", "sphere", "--sims", "4", "--init", "6",
                   "--metrics-out", str(metrics),
                   "--events-out", str(events)])
        assert rc == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["sims_total{kind=actor}"] >= 1
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        assert sum(r["event"] == "evaluation" for r in rows) >= 4

    def test_compare_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(["compare", "sphere", "--methods", "Random",
                   "--runs", "1", "--sims", "3", "--init", "6",
                   "--quiet", "--trace-out", str(trace)])
        assert rc == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {r["name"] for r in rows} >= {"run", "simulate"}


class TestSaveFlag:
    def test_optimize_save_roundtrip(self, tmp_path, capsys):
        from repro.core.serialize import load_result

        out = tmp_path / "run.npz"
        rc = main(["optimize", "sphere", "--sims", "4", "--init", "6",
                   "--method", "Random", "--save", str(out)])
        assert rc == 0
        loaded = load_result(out)
        assert loaded.method == "Random"
        assert loaded.n_sims == 4


class TestResilienceFlags:
    def test_fault_injected_run_with_checkpoint_and_resume(self, tmp_path,
                                                           capsys):
        ckpt = tmp_path / "ck.npz"
        rc = main(["optimize", "sphere", "--method", "MA-Opt1",
                   "--sims", "8", "--init", "8",
                   "--max-retries", "2", "--inject-faults", "0.2",
                   "--checkpoint", str(ckpt), "--checkpoint-every", "2"])
        assert rc == 0 and ckpt.exists()
        rc = main(["optimize", "sphere", "--method", "MA-Opt1",
                   "--sims", "12", "--init", "8",
                   "--max-retries", "2", "--inject-faults", "0.2",
                   "--resume", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from" in out

    def test_resume_rejects_baselines(self, tmp_path):
        with pytest.raises(SystemExit, match="MA-Opt family"):
            main(["optimize", "sphere", "--method", "Random",
                  "--resume", str(tmp_path / "ck.npz")])

    @pytest.mark.parametrize("flags", [
        ["--max-retries", "2"], ["--sim-timeout", "5"],
        ["--checkpoint", "ck.npz"], ["--checkpoint-every", "2"]])
    def test_ma_only_flags_reject_baselines(self, flags):
        with pytest.raises(SystemExit, match="MA-Opt family") as exc:
            main(["optimize", "sphere", "--method", "BO",
                  "--sims", "4", "--init", "4", *flags])
        assert flags[0] in str(exc.value)

    def test_fault_injected_baseline_completes(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        rc = main(["optimize", "sphere", "--method", "Random",
                   "--sims", "10", "--init", "8", "--inject-faults", "0.4",
                   "--events-out", str(events)])
        assert rc == 0
        lines = [json.loads(line) for line in events.read_text().splitlines()
                 if line.strip()]
        kinds = [e.get("kind") for e in lines if e["event"] == "evaluation"]
        assert kinds.count("Random") == 10
        assert any(e["event"] == "sim_failed" for e in lines)

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(SystemExit, match="inject-faults"):
            main(["optimize", "sphere", "--inject-faults", "1.5",
                  "--sims", "4", "--init", "4"])

    def test_compare_checkpoint_dir(self, tmp_path, capsys):
        cmd = ["compare", "sphere", "--methods", "Random",
               "--runs", "1", "--sims", "4", "--init", "6",
               "--checkpoint-dir", str(tmp_path / "cmp")]
        assert main(cmd) == 0
        assert (tmp_path / "cmp" / "Random_run0.npz").exists()
        assert main(cmd) == 0  # resumes from the archive
        assert "restored from checkpoint" in capsys.readouterr().out
