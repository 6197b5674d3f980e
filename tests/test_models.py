"""The analytic bit-accounting engine and the sim/model/verify mode axis.

Three layers of guarantees:

* the closed forms in :mod:`repro.analysis.models` agree with brute-force
  summation (and with :func:`repro.core.counting.predicted_counting_bits`,
  the O(n) reference implementation);
* the model matches the simulator *bit for bit* at every simulable size —
  a hypothesis sweep over random (growth law, n, mode) triples, plus
  whole-table equality between sim-mode and model-mode runs;
* the plumbing honors the contract: model-mode cells never invoke the
  simulator (poisoned-simulator guard), sim and model records of the same
  (exp, size) coexist in one store without either going stale, and the
  CLI's ``--mode`` flag routes and reports verdicts end to end.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rejected
from repro.analysis import models as analytic
from repro.cli import main
from repro.core.counting import predicted_counting_bits
from repro.errors import ReproError
from repro.experiments import e09_hierarchy as e9
from repro.experiments import e10_known_n as e10
from repro.experiments.base import (
    MODES,
    SIM_CEILING,
    RunProfile,
    Sweep,
    route_mode,
)
from repro.runner import execute_campaign
from repro.runner.store import RunStore

QUICK = RunProfile(preset="quick")
QUICK_MODEL = RunProfile(preset="quick", mode="model")
QUICK_VERIFY = RunProfile(preset="quick", mode="verify")


class TestClosedForms:
    """The O(log n) formulas against brute-force summation."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7, 8, 9, 255, 256, 300])
    def test_floor_log2_sum_matches_brute_force(self, m):
        brute = sum(int(math.floor(math.log2(i))) for i in range(1, m + 1))
        assert analytic.floor_log2_sum(m) == brute

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 15, 16, 17, 100, 1023, 1024])
    def test_elias_gamma_sum_matches_brute_force(self, m):
        brute = sum(
            2 * int(math.floor(math.log2(i))) + 1 for i in range(1, m + 1)
        )
        assert analytic.elias_gamma_sum(m) == brute

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 100, 257])
    def test_counting_pass_bits_equals_reference(self, n):
        assert analytic.counting_pass_bits(n) == predicted_counting_bits(n)

    @pytest.mark.parametrize(
        "n,p", [(1, 1), (5, 1), (5, 5), (8, 3), (100, 10), (257, 16)]
    )
    def test_window_letter_sum_matches_brute_force(self, n, p):
        brute = sum(min(k + 1, p) for k in range(n))
        assert analytic.window_letter_sum(n, p) == brute

    def test_domain_validation(self):
        with pytest.raises(ReproError):
            analytic.counting_pass_bits(0)
        with pytest.raises(ReproError):
            analytic.window_letter_sum(4, 5)
        with pytest.raises(ReproError):
            analytic.window_letter_sum(4, 0)
        with pytest.raises(ReproError):
            analytic.elias_gamma_sum(-1)

    def test_model_version_matches_changelog(self):
        versions = [entry[0] for entry in analytic.MODEL_CHANGELOG]
        assert versions == sorted(versions)
        assert versions[-1] == analytic.MODEL_VERSION


class TestModelMatchesSimulator:
    """Bit-for-bit calibration at simulable sizes — the verify contract."""

    @given(
        name=st.sampled_from(sorted(e9._GROWTHS)),
        n=st.integers(min_value=2, max_value=96),
        mode=st.sampled_from(MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_e9_model_bits_equal_simulator_bits(self, name, n, mode):
        rng = random.Random(20260808)
        params = {"growth": name, "n": n}
        if mode != "sim":
            params["mode"] = mode
        record = e9._measure(params, rng)
        model = e9._model_record(e9._GROWTHS[name], n)
        if mode == "verify":
            assert record["verdict"] == "PASS", record["mismatches"]
        if mode == "model":
            # Model output *is* the analytic prediction.
            for field in e9._VERIFY_FIELDS:
                assert record.get(field) == model.get(field)
        else:
            # Sim/verify output must equal it on every contract field.
            verdict = analytic.calibration_verdict(
                record, model, e9._VERIFY_FIELDS
            )
            assert verdict["verdict"] == "PASS", verdict["mismatches"]

    @given(
        name=st.sampled_from(sorted(e10._GROWTHS)),
        n=st.integers(min_value=2, max_value=96),
        mode=st.sampled_from(MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_e10_hierarchy_model_bits_equal_simulator_bits(
        self, name, n, mode
    ):
        rng = random.Random(20260808)
        params = {"growth": name, "n": n}
        if mode != "sim":
            params["mode"] = mode
        record = e10._measure_hierarchy(params, rng)
        model = e10._model_hierarchy_record(e10._GROWTHS[name], n)
        if mode == "verify":
            assert record["verdict"] == "PASS", record["mismatches"]
        verdict = analytic.calibration_verdict(
            record, model, e10._HIERARCHY_VERIFY_FIELDS
        )
        assert verdict["verdict"] == "PASS", verdict["mismatches"]

    @given(
        n=st.integers(min_value=2, max_value=96),
        mode=st.sampled_from(MODES),
    )
    @settings(max_examples=30, deadline=None)
    def test_e10_prime_model_bits_equal_simulator_bits(self, n, mode):
        rng = random.Random(20260808)
        params = {"n": n}
        if mode != "sim":
            params["mode"] = mode
        record = e10._measure_prime(params, rng)
        model = e10._model_prime_record(n)
        if mode == "verify":
            assert record["verdict"] == "PASS", record["mismatches"]
        verdict = analytic.calibration_verdict(
            record, model, e10._PRIME_VERIFY_FIELDS
        )
        assert verdict["verdict"] == "PASS", verdict["mismatches"]

    def test_model_tables_match_sim_tables_bit_for_bit(self):
        sim_rows = e9.SPEC.run(QUICK).require_passed().rows
        model_rows = e9.SPEC.run(QUICK_MODEL).require_passed().rows
        assert len(sim_rows) == len(model_rows)
        for sim_row, model_row in zip(sim_rows, model_rows):
            assert sim_row["compare bits"] == model_row["compare bits"]
            assert sim_row["total bits"] == model_row["total bits"]
        sim_rows = e10.SPEC.run(QUICK).require_passed().rows
        model_rows = e10.SPEC.run(QUICK_MODEL).require_passed().rows
        assert len(sim_rows) == len(model_rows)
        for sim_row, model_row in zip(sim_rows, model_rows):
            assert sim_row["bits"] == model_row["bits"]
            assert (
                sim_row["unknown-n bits"] == model_row["unknown-n bits"]
            )


class TestModeRouting:
    """The profile's mode axis: routing, sweeps, cell identity."""

    def test_route_mode(self):
        sim = RunProfile(preset="long")
        model = RunProfile(preset="long", mode="model")
        verify = RunProfile(preset="long", mode="verify")
        assert route_mode(sim, 10**6) == "sim"
        assert route_mode(model, 8) == "model"
        assert route_mode(verify, SIM_CEILING) == "verify"
        assert route_mode(verify, SIM_CEILING + 1) == "model"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            RunProfile(preset="quick", mode="guess")

    def test_model_long_sizes_invisible_to_sim_profiles(self):
        sweep = Sweep(
            full=(8,), quick=(4,), long=(16, 32), model_long=(64, 128)
        )
        assert sweep.sizes(RunProfile(preset="long")) == (16, 32)
        assert sweep.sizes(RunProfile(preset="long", mode="model")) == (
            16,
            32,
            64,
            128,
        )
        assert sweep.sizes(RunProfile(preset="long", mode="verify")) == (
            16,
            32,
            64,
            128,
        )
        # Non-long presets never see model_long.
        assert sweep.sizes(RunProfile(preset="full", mode="model")) == (8,)

    def test_long_model_sweeps_reach_two_to_the_twenty(self):
        long_model = RunProfile(preset="long", mode="model")
        assert max(e9.SWEEP.sizes(long_model)) >= 2**20
        assert max(e10.SWEEP.sizes(long_model)) >= 2**20
        # ...and a cell at that size is measured by the model, not skipped.
        record = e9._measure(
            {"growth": "n^2", "n": 2**20, "mode": "model"}, random.Random(0)
        )
        assert record["mode"] == "model" and not record["skipped"]

    def test_mode_distinguishes_cell_identity(self):
        sim_cells = {cell.key: cell for cell in e9.plan(QUICK)}
        model_cells = {cell.key: cell for cell in e9.plan(QUICK_MODEL)}
        assert not set(sim_cells) & set(model_cells)
        sim_hashes = {cell.config_hash() for cell in sim_cells.values()}
        model_hashes = {cell.config_hash() for cell in model_cells.values()}
        assert not sim_hashes & model_hashes


class TestPoisonedSimulator:
    """Model-mode cells must never touch the simulator."""

    def test_model_mode_never_invokes_run_unidirectional(self, monkeypatch):
        def poisoned(*args, **kwargs):
            raise AssertionError("model-mode cell invoked the simulator")

        # The experiments import run_unidirectional by name, so the
        # module attribute is the seam that proves the fast path.
        monkeypatch.setattr(e9, "run_unidirectional", poisoned)
        monkeypatch.setattr(e10, "run_unidirectional", poisoned)
        for module in (e9, e10):
            module.SPEC.run(QUICK_MODEL).require_passed()

    def test_sim_mode_still_simulates_under_poison(self, monkeypatch):
        def poisoned(*args, **kwargs):
            raise AssertionError("sim path reached, as expected")

        monkeypatch.setattr(e9, "run_unidirectional", poisoned)
        with pytest.raises(AssertionError, match="sim path reached"):
            e9.SPEC.run(QUICK)


class TestStoreCoexistence:
    """Sim and model records of the same (exp, size) share a store."""

    def test_sim_and_model_records_never_stale_each_other(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        execute_campaign([e9.SPEC], QUICK, store=store)
        execute_campaign([e9.SPEC], QUICK_MODEL, store=store)
        sim_cells = e9.SPEC.cells(QUICK)
        model_cells = e9.SPEC.cells(QUICK_MODEL)
        # Neither plan considers the other's records stale...
        assert store.stale_paths(sim_cells, QUICK) == []
        assert store.stale_paths(model_cells, QUICK_MODEL) == []
        assert store.prune_stale(model_cells, QUICK_MODEL) == []
        # ...and both remain loadable after the other reran.
        for cell in sim_cells:
            assert store.load(cell, QUICK) is not None
        for cell in model_cells:
            assert store.load(cell, QUICK_MODEL) is not None

    def test_stored_payload_carries_mode(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        execute_campaign([e10.SPEC], QUICK_VERIFY, store=store)
        payloads = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(store.existing_files())
        ]
        assert payloads
        assert all(payload["mode"] == "verify" for payload in payloads)
        assert all(
            payload["record"]["verdict"] == "PASS" for payload in payloads
        )


class TestCliMode:
    """The --mode flag end to end."""

    def test_cli_model_mode_runs_and_reports(self, capsys):
        rc = main(["E9", "--quick", "--mode", "model", "--no-store", "--profile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "model-backed cell(s)" in out

    def test_cli_verify_mode_persists_pass_verdicts(self, tmp_path, capsys):
        root = tmp_path / "runs"
        rc = main(
            [
                "E9",
                "E10",
                "--quick",
                "--mode",
                "verify",
                "--store",
                str(root),
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify PASS" in out
        records = [
            json.loads(path.read_text(encoding="utf-8"))["record"]
            for path in root.rglob("*__*.json")
        ]
        assert records
        assert all(record["verdict"] == "PASS" for record in records)

    def test_cli_rejects_unknown_mode(self, capsys):
        assert_rejected(capsys, ["E9", "--quick", "--mode", "exact"], "--mode")
