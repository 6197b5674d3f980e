"""Tests for the telemetry layer: span journal, trace reports, ledger.

The layer's contract has three legs, each pinned here:

* **Invisibility** — a campaign with telemetry on renders byte-identical
  stdout and (seconds aside — wall clocks differ run to run) an
  identical store to one under ``REPRO_NO_TELEMETRY=1``;
* **Well-formedness** — the journal sidecar is line-parseable JSON,
  every span's start has a stop, and a truncated (crashed) journal
  still parses to its intact prefix;
* **Honest gating** — ``ledger check`` passes values inside the drift
  band, flags step changes, and treats short-history metrics as NEW.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import assert_rejected
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import RunProfile, get_spec
from repro.obs.journal import (
    Journal,
    latest_journal,
    read_journal,
    telemetry_enabled,
    telemetry_root,
)
from repro.obs.ledger import append_run, check_ledger, seed_ledger
from repro.obs.report import (
    critical_path,
    idle_summary,
    load_trace,
    weight_calibration,
)
from repro.runner import execute_campaign

QUICK = RunProfile(preset="quick")
FLEET = ("E8", "E11")


def _specs():
    return [get_spec(exp_id) for exp_id in FLEET]


def _strip_seconds(node):
    """Drop every wall-clock field so stores compare structurally."""
    if isinstance(node, dict):
        return {
            key: _strip_seconds(value)
            for key, value in node.items()
            if key != "seconds"
        }
    if isinstance(node, list):
        return [_strip_seconds(item) for item in node]
    return node


def _store_snapshot(root: Path) -> "dict[str, object]":
    return {
        str(path.relative_to(root)): _strip_seconds(
            json.loads(path.read_text(encoding="utf-8"))
        )
        for path in sorted(root.rglob("*.json"))
    }


class TestJournal:
    def test_campaign_journal_is_well_formed(self):
        campaign = execute_campaign(_specs(), QUICK, jobs=2)
        assert campaign.journal is not None
        path = latest_journal(telemetry_root())
        assert path is not None
        events, dropped = read_journal(path)
        assert dropped == 0
        assert events[0]["ev"] == "campaign_start"
        assert events[0]["schema"] == 1
        assert events[-1]["ev"] == "campaign_stop"
        # Every span's start has exactly one matching stop (lifecycle
        # events like campaign_start carry no "span" id and don't pair).
        starts = {
            (e["ev"][: -len("_start")], e["span"])
            for e in events
            if e["ev"].endswith("_start") and "span" in e
        }
        stops = {
            (e["ev"][: -len("_stop")], e["span"])
            for e in events
            if e["ev"].endswith("_stop") and "span" in e
        }
        assert starts == stops
        assert any(kind == "cell" for kind, _span in starts)
        # The in-memory event list is the file, minus nothing.
        assert len(campaign.journal.events) == len(events)

    def test_truncated_journal_parses_to_intact_prefix(self):
        execute_campaign(_specs(), QUICK, jobs=1)
        path = latest_journal(telemetry_root())
        whole, dropped = read_journal(path)
        assert dropped == 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "cell_start", "t": 1.0, "tru')
        events, dropped = read_journal(path)
        assert dropped == 1
        assert len(events) == len(whole)

    def test_kill_switch_suppresses_journal(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TELEMETRY", "1")
        assert not telemetry_enabled()
        campaign = execute_campaign(_specs(), QUICK, jobs=1)
        assert campaign.journal is None
        root = Path(os.environ["REPRO_TELEMETRY_DIR"])
        assert not root.is_dir() or not list(root.iterdir())
        campaign.executions["E8"].result.require_passed()

    def test_journal_open_survives_unwritable_root(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", "/dev/null/nope")
        journal = Journal.open("campaign")
        assert journal is not None and journal.path is None
        journal.emit("probe")
        assert journal.events[-1]["ev"] == "probe"
        journal.close()


class TestParity:
    def test_stdout_and_store_identical_on_vs_off(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = ["E8", "E11", "--quick", "--jobs", "2", "--store"]
        assert main(argv + [str(tmp_path / "store-on")]) == 0
        out_on = capsys.readouterr().out
        monkeypatch.setenv("REPRO_NO_TELEMETRY", "1")
        assert main(argv + [str(tmp_path / "store-off")]) == 0
        out_off = capsys.readouterr().out
        assert out_on == out_off
        on = _store_snapshot(tmp_path / "store-on")
        off = _store_snapshot(tmp_path / "store-off")
        assert on and on == off
        # The journal sidecar never leaks into the diffed store tree.
        assert not list((tmp_path / "store-on").rglob("*.jsonl"))


class TestTraceCLI:
    def test_trace_renders_latest_campaign(self, capsys):
        assert main(["E8", "E11", "--quick", "--jobs", "2", "--no-store"]) == 0
        capsys.readouterr()
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "== trace campaign-" in out
        assert "critical path" in out
        assert "per-worker utilization" in out
        assert "weight calibration" in out

    def test_trace_without_journals_fails_cleanly(self, capsys):
        assert main(["trace"]) == 1
        err = capsys.readouterr().err
        assert "no campaign journals" in err
        assert "REPRO_NO_TELEMETRY" in err

    def test_trace_rejects_run_flags(self, capsys):
        assert_rejected(capsys, ["trace", "--jobs", "2"], "--jobs")

    def test_profile_idle_line_comes_from_the_journal(self, capsys):
        assert main(
            ["E8", "E11", "--quick", "--jobs", "2", "--no-store", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "[idle: " in out
        assert "straggler" in out and "fold-barrier" in out

    def test_profile_idle_line_absent_when_telemetry_off(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_TELEMETRY", "1")
        assert main(
            ["E8", "E11", "--quick", "--jobs", "2", "--no-store", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "[idle: " not in out
        assert "utilization" in out  # the rest of --profile still prints


class TestReports:
    def test_critical_path_terminates_and_is_time_ordered(self):
        campaign = execute_campaign(_specs(), QUICK, jobs=2)
        trace = load_trace(campaign.journal.events)
        chain = critical_path(trace)
        assert chain, "a measured campaign always has a last-finishing item"
        assert all(a.t0 <= b.t0 for a, b in zip(chain, chain[1:]))
        worker = chain[-1].fields.get("worker")
        assert all(span.fields.get("worker") == worker for span in chain)

    def test_idle_summary_shares_sum_to_one(self):
        campaign = execute_campaign(_specs(), QUICK, jobs=2)
        summary = idle_summary(load_trace(campaign.journal.events))
        assert summary is not None
        assert summary["lanes"] >= 1
        if summary["idle_s"] > 0:
            assert sum(summary["shares"].values()) == pytest.approx(1.0)

    def test_weight_calibration_flags_the_dishonest_cell(self):
        entries = [("EX", f"n{i}", 1.0, 1.0) for i in range(3)]
        entries.append(("EX", "witness", 24.0, 1.0))
        rows = weight_calibration(entries)
        flagged = [row for row in rows if row["flagged"]]
        assert [row["key"] for row in flagged] == ["witness"]

    def test_weight_calibration_ignores_subsecond_noise(self):
        entries = [("EX", f"n{i}", 1.0, 0.01) for i in range(3)]
        entries.append(("EX", "small", 10.0, 0.01))
        assert not any(
            row["flagged"] for row in weight_calibration(entries)
        )

    def test_weight_calibration_needs_peers(self):
        rows = weight_calibration([("EX", "only", 24.0, 1.0)])
        assert not any(row["flagged"] for row in rows)


class TestLedger:
    @staticmethod
    def _record(value: float) -> dict:
        return {"name": "m.wall_s", "value": value, "unit": "s"}

    def test_check_passes_inside_the_band(self, tmp_path):
        path = tmp_path / "LEDGER.jsonl"
        for i, value in enumerate((10.0, 10.2, 9.9, 10.1)):
            append_run(path, f"r{i}", [self._record(value)])
        check = check_ledger(path)
        assert check.passed
        assert [row["verdict"] for row in check.rows] == ["OK"]

    def test_check_flags_a_step_change(self, tmp_path):
        path = tmp_path / "LEDGER.jsonl"
        for i, value in enumerate((10.0, 10.2, 9.9, 100.0)):
            append_run(path, f"r{i}", [self._record(value)])
        check = check_ledger(path)
        assert not check.passed
        assert check.violations[0]["name"] == "m.wall_s"
        assert "DRIFT" in check.render()

    def test_short_history_is_new_not_drift(self, tmp_path):
        path = tmp_path / "LEDGER.jsonl"
        append_run(path, "r0", [self._record(10.0)])
        append_run(path, "r1", [self._record(99.0)])
        check = check_ledger(path)
        assert check.passed
        assert [row["verdict"] for row in check.rows] == ["NEW"]

    def test_ledger_is_append_only(self, tmp_path):
        path = tmp_path / "LEDGER.jsonl"
        append_run(path, "r0", [self._record(1.0)])
        with pytest.raises(ReproError, match="append-only"):
            append_run(path, "r0", [self._record(2.0)])

    def test_seed_is_idempotent(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "BENCH_sample.json").write_text(
            json.dumps(
                {"date": "2026-08-08", "timings": {"fast_s": 1.5, "n": 4}}
            ),
            encoding="utf-8",
        )
        path = tmp_path / "LEDGER.jsonl"
        added, skipped = seed_ledger(bench_dir, path)
        assert added == 2 and skipped == 0
        added, skipped = seed_ledger(bench_dir, path)
        assert added == 0 and skipped == 1

    def test_cli_check_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "LEDGER.jsonl"
        for i, value in enumerate((10.0, 10.2, 9.9, 10.1)):
            append_run(path, f"r{i}", [self._record(value)])
        assert main(["ledger", "check", "--ledger", str(path)]) == 0
        assert "within band" in capsys.readouterr().out
        append_run(path, "bad", [self._record(500.0)])
        assert main(["ledger", "check", "--ledger", str(path)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_cli_append_duplicate_run_is_a_clean_error(
        self, tmp_path, capsys
    ):
        bench = tmp_path / "one.json"
        bench.write_text(
            json.dumps({"records": [self._record(1.0)]}), encoding="utf-8"
        )
        path = tmp_path / "LEDGER.jsonl"
        argv = [
            "ledger", "append", str(bench),
            "--ledger", str(path), "--run-id", "r0",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "append-only" in capsys.readouterr().err
