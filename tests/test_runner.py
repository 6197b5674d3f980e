"""Cell model, executor determinism, run store, resume, and report tests.

The contracts under test are the ones the CLI advertises: a profile run
with ``--jobs N`` renders byte-identical tables for every N (per-cell
seed derivation, plan-order folding), a partially stored run resumed
with ``--resume`` completes and matches a fresh run, and ``report``
renders from the store alone or fails naming the missing cells.
"""

from __future__ import annotations

import json

import pytest

from conftest import assert_rejected
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import ALL_SPECS, RunProfile, cell_seed, get_spec
from repro.experiments.base import Cell, ExperimentSpec, run_cell
from repro.runner import (
    RunStore,
    execute_plan,
    report_from_store,
)

QUICK = RunProfile(preset="quick")


def _ok_cell_fn(params, rng):
    return {"n": params["n"], "bits": params["n"]}


def _boom_cell_fn(params, rng):
    raise ValueError("cell exploded")


def _fragile_plan(profile):
    cells = [
        Cell(
            exp_id="EX",
            key=f"n={n}",
            fn=_ok_cell_fn,
            params={"n": n},
            seed=cell_seed("EX", f"n={n}"),
        )
        for n in (1, 2, 3)
    ]
    cells.append(
        Cell(
            exp_id="EX",
            key="boom",
            fn=_boom_cell_fn,
            params={},
            seed=cell_seed("EX", "boom"),
        )
    )
    return cells


FRAGILE = ExperimentSpec(exp_id="EX", plan=_fragile_plan, finalize=None)


class TestCellModel:
    def test_cell_seed_is_identity_based(self):
        assert cell_seed("E8", "n=6") == cell_seed("E8", "n=6")
        assert cell_seed("E8", "n=6") != cell_seed("E8", "n=12")
        assert cell_seed("E8", "n=6") != cell_seed("E7", "n=6")

    def test_run_cell_is_reproducible(self):
        cell = get_spec("E8").cells(QUICK)[0]
        assert run_cell(cell) == run_cell(cell)

    def test_records_are_json_serializable(self):
        for cell in get_spec("E8").cells(QUICK):
            json.dumps(run_cell(cell))

    def test_every_plan_has_unique_keys_and_matching_exp_id(self):
        for exp_id, spec in ALL_SPECS.items():
            cells = spec.cells(QUICK)
            assert cells, exp_id
            assert len({cell.key for cell in cells}) == len(cells), exp_id
            assert all(cell.key for cell in cells), exp_id
            assert all(cell.exp_id == exp_id for cell in cells), exp_id

    def test_duplicate_cell_keys_rejected(self):
        def _plan(profile):
            cell = get_spec("E8").cells(profile)[0]
            return [cell, cell]

        spec = ExperimentSpec(exp_id="EX", plan=_plan, finalize=None)
        with pytest.raises(ReproError, match="duplicate cell keys"):
            spec.cells(QUICK)

    def test_config_hash_tracks_params_and_seed(self):
        cell = get_spec("E8").cells(QUICK)[0]
        tweaked_params = Cell(
            exp_id=cell.exp_id,
            key=cell.key,
            fn=cell.fn,
            params={"n": 999},
            seed=cell.seed,
        )
        tweaked_seed = Cell(
            exp_id=cell.exp_id,
            key=cell.key,
            fn=cell.fn,
            params=dict(cell.params),
            seed=cell.seed + 1,
        )
        assert cell.config_hash() != tweaked_params.config_hash()
        assert cell.config_hash() != tweaked_seed.config_hash()

    def test_config_hash_tracks_measurement_code(self):
        """Changing the cell fn (name or source) invalidates stored records."""
        cell = get_spec("E8").cells(QUICK)[0]
        other_fn = get_spec("E7").cells(QUICK)[0].fn
        swapped = Cell(
            exp_id=cell.exp_id,
            key=cell.key,
            fn=other_fn,
            params=dict(cell.params),
            seed=cell.seed,
        )
        assert cell.config_hash() != swapped.config_hash()


class TestExecutorDeterminism:
    def test_serial_execute_matches_legacy_run(self):
        spec = get_spec("E8")
        assert (
            execute_plan(spec, QUICK).result.render()
            == spec.run(QUICK).render()
        )

    @pytest.mark.parametrize("exp_id", ["E1", "E8", "E11"])
    def test_parallel_tables_byte_identical(self, exp_id):
        """--jobs 4 == --jobs 1: same rows, bits, verdicts, rendering."""
        spec = get_spec(exp_id)
        serial = execute_plan(spec, QUICK, jobs=1)
        parallel = execute_plan(spec, QUICK, jobs=4)
        assert parallel.result.render() == serial.result.render()
        assert parallel.result.rows == serial.result.rows
        assert parallel.result.passed is serial.result.passed

    def test_parallel_records_match_serial(self):
        spec = get_spec("E8")
        serial = execute_plan(spec, QUICK, jobs=1)
        parallel = execute_plan(spec, QUICK, jobs=4)
        assert {o.cell.key: o.record for o in serial.outcomes} == {
            o.cell.key: o.record for o in parallel.outcomes
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_raises_but_siblings_persist(self, tmp_path, jobs):
        """A broken cell must not cost the records its siblings measured."""
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="cell exploded"):
            execute_plan(FRAGILE, QUICK, jobs=jobs, store=store)
        survivors = [
            cell
            for cell in FRAGILE.cells(QUICK)
            if cell.key != "boom" and store.load(cell, QUICK) is not None
        ]
        # Parallel runs drain the whole pool before re-raising, so every
        # healthy cell is stored; the serial loop persists the cells it
        # reached (LPT order is plan order here — all weights equal —
        # and "boom" is last, so it reached all three).
        assert len(survivors) == 3

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ReproError, match="positive worker count"):
            execute_plan(get_spec("E8"), QUICK, jobs=0)

    def test_cell_seconds_aggregates_outcomes(self):
        execution = execute_plan(get_spec("E8"), QUICK)
        assert execution.cell_seconds == pytest.approx(
            sum(outcome.seconds for outcome in execution.outcomes)
        )
        assert execution.cached_count == 0


class TestRunStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        cell = get_spec("E8").cells(QUICK)[0]
        record = run_cell(cell)
        path = store.save(cell, QUICK, record, 0.25)
        assert path.is_file()
        assert str(path).startswith(str(tmp_path / "E8" / "quick"))
        hit = store.load(cell, QUICK)
        assert hit is not None
        assert hit.record == record
        assert hit.seconds == 0.25

    def test_load_misses_absent_and_corrupt_files(self, tmp_path):
        store = RunStore(tmp_path)
        cell = get_spec("E8").cells(QUICK)[0]
        assert store.load(cell, QUICK) is None
        path = store.path_for(cell, QUICK)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert store.load(cell, QUICK) is None

    def test_load_misses_on_malformed_seconds(self, tmp_path):
        store = RunStore(tmp_path)
        cell = get_spec("E8").cells(QUICK)[0]
        store.save(cell, QUICK, run_cell(cell), 0.0)
        path = store.path_for(cell, QUICK)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seconds"] = "fast"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(cell, QUICK) is None

    def test_load_rejects_stale_config_hash(self, tmp_path):
        """A record whose embedded identity drifted is never trusted."""
        store = RunStore(tmp_path)
        cell = get_spec("E8").cells(QUICK)[0]
        store.save(cell, QUICK, run_cell(cell), 0.0)
        path = store.path_for(cell, QUICK)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config_hash"] = "0" * 12
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(cell, QUICK) is None

    def test_presets_do_not_share_records(self, tmp_path):
        store = RunStore(tmp_path)
        cell = get_spec("E8").cells(QUICK)[0]
        store.save(cell, QUICK, run_cell(cell), 0.0)
        assert store.load(cell, RunProfile(preset="full")) is None


class TestResume:
    def test_resume_completes_partial_store_and_matches_fresh(self, tmp_path):
        """Kill-midway scenario: some cells stored, --resume fills the rest."""
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        fresh = execute_plan(spec, QUICK)
        # Simulate an interrupted run: persist only half the cells.
        cells = spec.cells(QUICK)
        for outcome in execute_plan(spec, QUICK).outcomes[: len(cells) // 2]:
            store.save(outcome.cell, QUICK, outcome.record, outcome.seconds)
        resumed = execute_plan(spec, QUICK, store=store, resume=True)
        assert resumed.cached_count == len(cells) // 2
        assert resumed.result.render() == fresh.result.render()
        # And now the store is complete: a second resume measures nothing.
        again = execute_plan(spec, QUICK, store=store, resume=True)
        assert again.cached_count == len(cells)
        assert again.result.render() == fresh.result.render()

    def test_without_resume_store_is_rewritten_not_read(self, tmp_path):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        poisoned = spec.cells(QUICK)[0]
        store.save(poisoned, QUICK, {"n": 6, "bits": -1}, 0.0)
        execution = execute_plan(spec, QUICK, store=store, resume=False)
        assert execution.cached_count == 0
        assert store.load(poisoned, QUICK).record["bits"] != -1

    def test_report_requires_complete_store(self, tmp_path):
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        with pytest.raises(ReproError, match="missing"):
            report_from_store(spec, QUICK, store)
        execute_plan(spec, QUICK, store=store)
        reported = report_from_store(spec, QUICK, store)
        assert reported.result.render() == spec.run(QUICK).render()
        assert all(outcome.cached for outcome in reported.outcomes)


class TestCLIRunnerFlags:
    def test_cli_jobs_output_identical(self, capsys, tmp_path):
        assert main(["E8", "--quick", "--no-store"]) == 0
        serial = capsys.readouterr().out
        assert main(["E8", "--quick", "--no-store", "--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cli_profile_reports_cell_time(self, capsys):
        assert main(["E8", "--quick", "--no-store", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "of cell time across 4 cells" in output
        assert "jobs=1" in output

    def test_cli_run_then_report(self, capsys, tmp_path):
        store = str(tmp_path)
        assert main(["E8", "--quick", "--store", store]) == 0
        run_output = capsys.readouterr().out
        assert main(["report", "E8", "--quick", "--store", store]) == 0
        report_output = capsys.readouterr().out
        assert report_output == run_output

    def test_cli_report_fails_cleanly_when_store_empty(self, capsys, tmp_path):
        assert main(["report", "E8", "--quick", "--store", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.err
        assert "FAILED" in captured.err

    def test_cli_report_conflicts_with_no_store(self, capsys):
        assert_rejected(
            capsys, ["report", "E8", "--quick", "--no-store"], "--no-store"
        )

    def test_cli_resume_conflicts_with_no_store(self, capsys):
        assert_rejected(
            capsys,
            ["E8", "--quick", "--resume", "--no-store"],
            "--no-store: not allowed with argument --resume",
        )

    def test_cli_rejects_bad_jobs(self, capsys):
        assert_rejected(
            capsys, ["E8", "--quick", "--jobs", "0"], "positive worker count"
        )

    def test_cli_resume_uses_store(self, capsys, tmp_path):
        store = str(tmp_path)
        assert main(["E8", "--quick", "--store", store]) == 0
        first = capsys.readouterr().out
        assert (
            main(["E8", "--quick", "--store", store, "--resume", "--profile"])
            == 0
        )
        second = capsys.readouterr().out
        assert "4 from store" in second
        assert second.splitlines()[:10] == first.splitlines()[:10]
