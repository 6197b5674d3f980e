"""Campaign scheduler, store-backed refits, and report hygiene tests.

The contracts under test are the CLI's campaign advertisements: one
shared cell pool across every requested experiment renders tables
byte-identical to the sequential per-experiment path at any job count
(even when experiments share cell key spaces, as E9/E10 do), a campaign
killed midway resumes from the store, ``refit_from_store`` reproduces
every in-memory growth fit from persisted records alone, and ``report``
surfaces (and ``--prune-stale`` deletes) store files no current cell
loads.
"""

from __future__ import annotations

import json

import pytest

from conftest import assert_rejected
from repro.analysis.growth import classify_growth, refit_from_store
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import ALL_SPECS, RunProfile, get_spec
from repro.runner import (
    RunStore,
    execute_campaign,
    execute_plan,
)

QUICK = RunProfile(preset="quick")

# A fleet with interleaved cell key spaces: E9 and E10 both plan
# "g=<law>/n=<size>" cells, so any cross-experiment keying mistake
# (a global dict keyed by cell.key alone) corrupts exactly this set.
FLEET = ("E8", "E9", "E10", "E11")

CURVE_EXPERIMENTS = ("E1", "E7", "E8", "E9", "E10")


def _fleet_specs():
    return [get_spec(exp_id) for exp_id in FLEET]


class TestCampaignDeterminism:
    def test_campaign_matches_per_experiment_path(self):
        """One shared pool == twelve sequential pools, byte for byte."""
        campaign = execute_campaign(_fleet_specs(), QUICK)
        for exp_id in FLEET:
            alone = execute_plan(get_spec(exp_id), QUICK)
            assert (
                campaign.executions[exp_id].result.render()
                == alone.result.render()
            ), exp_id

    def test_campaign_parallel_byte_identical_to_serial(self):
        serial = execute_campaign(_fleet_specs(), QUICK, jobs=1)
        parallel = execute_campaign(_fleet_specs(), QUICK, jobs=4)
        for exp_id in FLEET:
            assert (
                parallel.executions[exp_id].result.render()
                == serial.executions[exp_id].result.render()
            ), exp_id

    def test_interleaved_key_spaces_stay_separate(self):
        """E9 and E10 share cell keys; records must never cross."""
        campaign = execute_campaign(
            [get_spec("E9"), get_spec("E10")], QUICK
        )
        for exp_id in ("E9", "E10"):
            outcomes = campaign.executions[exp_id].outcomes
            assert all(o.cell.exp_id == exp_id for o in outcomes)
        assert (
            campaign.executions["E9"].result.render()
            == execute_plan(get_spec("E9"), QUICK).result.render()
        )

    def test_executions_in_requested_order(self):
        campaign = execute_campaign(_fleet_specs(), QUICK)
        assert list(campaign.executions) == list(FLEET)

    def test_results_stream_on_completion(self):
        """on_result fires once per experiment, before the call returns."""
        seen = []
        campaign = execute_campaign(
            _fleet_specs(),
            QUICK,
            on_result=lambda exp_id, execution: seen.append(exp_id),
        )
        assert sorted(seen) == sorted(FLEET)
        assert set(campaign.executions) == set(seen)

    def test_duplicate_experiment_rejected(self):
        spec = get_spec("E8")
        with pytest.raises(ReproError, match="twice"):
            execute_campaign([spec, spec], QUICK)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ReproError, match="positive worker count"):
            execute_campaign(_fleet_specs(), QUICK, jobs=0)


class TestCampaignAccounting:
    def test_busy_seconds_and_utilization(self):
        campaign = execute_campaign(_fleet_specs(), QUICK)
        assert campaign.jobs == 1
        assert campaign.cell_count == sum(
            len(get_spec(exp_id).cells(QUICK)) for exp_id in FLEET
        )
        assert campaign.cached_count == 0
        # Measurement time is the per-experiment cell-seconds sum; busy
        # worker-seconds additionally count fold and finalize work (a
        # worker reassembling a divided cell is busy too).
        assert campaign.measured_seconds == pytest.approx(
            sum(
                ex.cell_seconds for ex in campaign.executions.values()
            )
        )
        assert campaign.busy_seconds == pytest.approx(
            campaign.measured_seconds
            + campaign.fold_seconds
            + campaign.finalize_seconds
        )
        assert 0.0 < campaign.utilization <= 1.0 + 1e-9

    def test_cached_cells_do_not_count_as_busy(self, tmp_path):
        store = RunStore(tmp_path)
        execute_campaign(_fleet_specs(), QUICK, store=store)
        resumed = execute_campaign(
            _fleet_specs(), QUICK, store=store, resume=True
        )
        assert resumed.cached_count == resumed.cell_count
        # Nothing was measured or folded (whole records satisfied every
        # cell, divisible ones included); only finalize time is busy.
        assert resumed.measured_seconds == 0.0
        assert resumed.fold_seconds == 0.0
        assert resumed.busy_seconds == pytest.approx(
            resumed.finalize_seconds
        )


class TestCampaignResume:
    def test_resume_after_kill_mid_campaign(self, tmp_path):
        """A campaign interrupted with cells stored across *some* of its
        experiments completes under --resume and matches a fresh run."""
        store = RunStore(tmp_path)
        fresh = execute_campaign(_fleet_specs(), QUICK)
        # Simulate the kill: persist roughly half of each experiment's
        # cells (plus all of E11's — one fully-finished experiment).
        for exp_id in FLEET:
            outcomes = fresh.executions[exp_id].outcomes
            keep = (
                len(outcomes) if exp_id == "E11" else len(outcomes) // 2
            )
            for outcome in outcomes[:keep]:
                store.save(outcome.cell, QUICK, outcome.record, outcome.seconds)
        resumed = execute_campaign(
            _fleet_specs(), QUICK, store=store, resume=True
        )
        assert 0 < resumed.cached_count < resumed.cell_count
        for exp_id in FLEET:
            assert (
                resumed.executions[exp_id].result.render()
                == fresh.executions[exp_id].result.render()
            ), exp_id
        # The store is now complete: a second resume measures nothing.
        again = execute_campaign(
            _fleet_specs(), QUICK, store=store, resume=True
        )
        assert again.cached_count == again.cell_count

    def test_fully_stored_experiment_finalizes_without_measuring(
        self, tmp_path
    ):
        store = RunStore(tmp_path)
        execute_plan(get_spec("E11"), QUICK, store=store)
        seen = []
        execute_campaign(
            [get_spec("E11")],
            QUICK,
            store=store,
            resume=True,
            on_result=lambda exp_id, execution: seen.append(
                (exp_id, execution.cached_count)
            ),
        )
        assert seen == [("E11", len(get_spec("E11").cells(QUICK)))]


class TestRefitFromStore:
    @pytest.mark.parametrize("exp_id", CURVE_EXPERIMENTS)
    def test_refit_equals_in_memory_fit(self, tmp_path, exp_id):
        """Store-backed refits reproduce the finalize-time fits exactly."""
        spec = get_spec(exp_id)
        store = RunStore(tmp_path)
        execution = execute_plan(spec, QUICK, store=store)
        records = {o.cell.key: o.record for o in execution.outcomes}
        in_memory = {
            name: classify_growth(ns, bits)
            for name, (ns, bits) in spec.growth_curves(
                QUICK, records
            ).items()
        }
        refit = refit_from_store(tmp_path, exp_id, QUICK)
        assert refit == in_memory
        assert refit  # every curve experiment fits at least one curve

    def test_refit_accepts_preset_name(self, tmp_path):
        store = RunStore(tmp_path)
        execute_plan(get_spec("E8"), QUICK, store=store)
        refit = refit_from_store(tmp_path, "E8", "quick")
        assert refit["0^k1^k2^k"].model.name == "n*log(n)"

    def test_refit_fails_on_incomplete_store(self, tmp_path):
        with pytest.raises(ReproError, match="missing"):
            refit_from_store(tmp_path, "E8", "quick")

    def test_refit_rejects_curveless_experiment(self, tmp_path):
        with pytest.raises(ReproError, match="no growth curves"):
            refit_from_store(tmp_path, "E5", "quick")

    def test_curve_hooks_cover_exactly_the_growth_experiments(self):
        with_curves = {
            exp_id
            for exp_id, spec in ALL_SPECS.items()
            if spec.curves is not None
        }
        assert with_curves == set(CURVE_EXPERIMENTS)


def _make_stale(store, spec):
    """Plant a superseded record: a current cell's key, outdated hash."""
    cell = spec.cells(QUICK)[0]
    path = store.path_for(cell, QUICK)
    stale = path.with_name(f"{path.name.split('__')[0]}__{'0' * 12}.json")
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text(json.dumps({"record": {}}), encoding="utf-8")
    return stale


class TestStoreHygiene:
    def test_stale_paths_lists_only_unloadable_files(self, tmp_path):
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        execute_plan(spec, QUICK, store=store)
        assert store.stale_paths(spec.cells(QUICK), QUICK) == []
        stale = _make_stale(store, spec)
        assert store.stale_paths(spec.cells(QUICK), QUICK) == [stale]

    def test_prune_stale_deletes_and_keeps_live_records(self, tmp_path):
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        execute_plan(spec, QUICK, store=store)
        stale = _make_stale(store, spec)
        pruned = store.prune_stale(spec.cells(QUICK), QUICK)
        assert pruned == [stale]
        assert not stale.exists()
        # Live records untouched: report still renders.
        assert store.require_all(spec.cells(QUICK), QUICK)

    def test_sizes_override_records_are_not_stale(self, tmp_path):
        """Records from a --sizes run share the preset directory but are
        still loadable by that override — never listed, never pruned."""
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        override = RunProfile(preset="quick", sizes=(15, 30, 60))
        execute_plan(spec, override, store=store)
        default_cells = spec.cells(QUICK)
        assert store.stale_paths(default_cells, QUICK) == []
        assert store.prune_stale(default_cells, QUICK) == []
        # The override invocation can still report from its records.
        assert store.require_all(spec.cells(override), override)

    def test_stale_paths_on_absent_directory(self, tmp_path):
        spec = get_spec("E8")
        store = RunStore(tmp_path / "never-written")
        assert store.stale_paths(spec.cells(QUICK), QUICK) == []


class TestCampaignCLI:
    def test_cli_subset_campaign_matches_serial(self, capsys):
        assert main(["E8", "E9", "E10", "--quick", "--no-store"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["E8", "E9", "E10", "--quick", "--no-store", "--jobs", "4"])
            == 0
        )
        assert capsys.readouterr().out == serial

    def test_cli_duplicate_ids_run_once(self, capsys):
        """A campaign plans each experiment once; repeats are deduped."""
        assert main(["E8", "e8", "--quick", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert out.count("== E8:") == 1
        assert "all 1 experiment(s) passed" in out

    def test_cli_profile_prints_campaign_utilization(self, capsys):
        assert main(["E8", "E11", "--quick", "--no-store", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "[campaign: 2 experiment(s)," in out
        assert "utilization" in out

    def test_cli_report_all_renders_campaign_summary(self, capsys, tmp_path):
        store = str(tmp_path)
        assert main(["E8", "E11", "--quick", "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "E8", "E11", "--quick", "--store", store]) == 0
        per_experiment = capsys.readouterr().out
        assert "campaign report" not in per_experiment
        # --all with a store holding only E8/E11 fails on the other ten
        # (report never silently shrinks scope) — so run the full fleet.
        assert main(["all", "--quick", "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--all", "--quick", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "== campaign report: preset quick, from the run store ==" in out
        assert "12/12 experiment(s) passed" in out

    def test_cli_report_refit_prints_fits(self, capsys, tmp_path):
        store = str(tmp_path)
        assert main(["E8", "--quick", "--store", store]) == 0
        capsys.readouterr()
        assert (
            main(["report", "E8", "--quick", "--store", store, "--refit"])
            == 0
        )
        captured = capsys.readouterr()
        assert "[refit E8/0^k1^k2^k: n*log(n):" in captured.out

    def test_cli_report_warns_on_stale_and_prunes(self, capsys, tmp_path):
        spec = get_spec("E8")
        store = RunStore(tmp_path)
        execute_plan(spec, QUICK, store=store)
        stale = _make_stale(store, spec)
        assert (
            main(["report", "E8", "--quick", "--store", str(tmp_path)]) == 0
        )
        captured = capsys.readouterr()
        assert "stale store file(s)" in captured.err
        assert "--prune-stale" in captured.err
        assert stale.exists()
        assert (
            main(
                [
                    "report",
                    "E8",
                    "--quick",
                    "--store",
                    str(tmp_path),
                    "--prune-stale",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "pruned 1 file(s)" in captured.err
        assert not stale.exists()

    def test_cli_report_flags_rejected_outside_report(self, capsys):
        for flag in ("--all", "--refit", "--prune-stale"):
            assert_rejected(capsys, ["E8", "--quick", flag], flag)

    def test_cli_report_all_without_ids(self, capsys, tmp_path):
        """`report --all` needs no positional ids beyond 'report'."""
        assert main(["report", "--all", "--quick", "--store", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.err
        assert "FAILED" in captured.err
