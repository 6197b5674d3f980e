"""Integration tests: every experiment passes in quick mode; CLI works.

These are the paper's claims end-to-end: a failing experiment means a
theorem's measured shape broke somewhere in the stack.
"""

from __future__ import annotations

import pytest

from conftest import assert_rejected
from repro.cli import build_profile, main, parse_sizes
from repro.errors import ReproError
from repro.experiments import (
    ALL_EXPERIMENTS,
    ALL_SPECS,
    LONG_PRESET_EXPERIMENTS,
    get_spec,
)
from repro.experiments.base import (
    ExperimentResult,
    RunProfile,
    Sweep,
    default_rng,
)


class TestRegistry:
    def test_all_twelve_registered(self):
        assert ALL_EXPERIMENTS == tuple(f"E{i}" for i in range(1, 13))
        assert ALL_EXPERIMENTS == tuple(ALL_SPECS)

    def test_lookup_case_insensitive(self):
        assert get_spec("e7") is ALL_SPECS["E7"]

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            get_spec("E99")


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_passes_quick(exp_id):
    """Each experiment's claim check holds on the reduced sweep."""
    result = get_spec(exp_id).run(True)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{exp_id} produced no rows"
    assert result.conclusions, f"{exp_id} drew no conclusions"
    result.require_passed()


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_passes_full(exp_id):
    """...and on the full sweep behind README.md's E1-E12 table (all
    twelve take about 3 s)."""
    get_spec(exp_id).run(RunProfile(preset="full")).require_passed()


class TestExperimentResult:
    def test_render_contains_table_and_verdict(self):
        result = get_spec("E11").run(True)
        text = result.render()
        assert "E11" in text
        assert "claim:" in text
        assert "RESULT: PASS" in text

    def test_require_passed_raises_on_failure(self):
        result = ExperimentResult(
            exp_id="EX",
            title="t",
            claim="c",
            columns=["a"],
            rows=[{"a": 1}],
            passed=False,
        )
        with pytest.raises(ReproError, match="EX failed"):
            result.require_passed()

    def test_sweep_selection(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,))
        assert sweep.sizes(True) == (1,)
        assert sweep.sizes(False) == (1, 2, 3)

    def test_default_rng_deterministic(self):
        assert default_rng().random() == default_rng().random()


class TestRunProfile:
    def test_bool_coercion_matches_legacy_flags(self):
        assert RunProfile.coerce(True).preset == "quick"
        assert RunProfile.coerce(False).preset == "full"
        assert bool(RunProfile(preset="quick"))
        assert not bool(RunProfile(preset="full"))
        assert not bool(RunProfile(preset="long"))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError, match="unknown preset"):
            RunProfile(preset="huge")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ReproError, match="positive ring sizes"):
            RunProfile(sizes=(8, 0))
        with pytest.raises(ReproError, match="positive ring sizes"):
            RunProfile(sizes=())

    def test_sweep_profile_selection(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,), long=(10, 20))
        assert sweep.sizes(RunProfile(preset="quick")) == (1,)
        assert sweep.sizes(RunProfile(preset="full")) == (1, 2, 3)
        assert sweep.sizes(RunProfile(preset="long")) == (10, 20)
        assert sweep.sizes(RunProfile(sizes=(7, 8))) == (7, 8)

    def test_long_preset_falls_back_to_full(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,))
        assert sweep.sizes(RunProfile(preset="long")) == (1, 2, 3)

    def test_long_capable_sweeps_reach_ten_thousand(self):
        """Every long-preset experiment defines a long sweep with n >= 10^4."""
        import importlib

        modules = {
            "E1": "e01_regular_linear",
            "E7": "e07_wcw_quadratic",
            "E8": "e08_counters_nlogn",
            "E9": "e09_hierarchy",
            "E10": "e10_known_n",
            "E11": "e11_passes_tradeoff",
        }
        assert set(modules) == set(LONG_PRESET_EXPERIMENTS)
        for exp_id, module_name in modules.items():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert module.SWEEP.long is not None, exp_id
            assert max(module.SWEEP.long) >= 10_000, exp_id
        # E8's long sweep is shaped so no one cell dominates: its largest
        # cell plans at most a third of the weight, leaving 2 or more
        # workers something to run in parallel.
        weights = [
            cell.weight
            for cell in get_spec("E8").cells(RunProfile(preset="long"))
        ]
        assert sum(weights) / max(weights) >= 3.0


class TestCLIParsing:
    def test_parse_sizes(self):
        assert parse_sizes("6,12,24") == (6, 12, 24)
        assert parse_sizes(" 6, 12 ,24 ") == (6, 12, 24)
        assert parse_sizes("1024") == (1024,)

    def test_parse_sizes_rejects_garbage(self):
        with pytest.raises(ReproError, match="comma-separated integers"):
            parse_sizes("6,twelve")
        with pytest.raises(ReproError, match="positive"):
            parse_sizes("6,-12")
        with pytest.raises(ReproError, match="empty"):
            parse_sizes(",")

    def test_build_profile_presets(self):
        assert build_profile(None, None, False) == RunProfile(preset="full")
        assert build_profile(None, None, True) == RunProfile(preset="quick")
        assert build_profile("long", None, False) == RunProfile(preset="long")
        assert build_profile("quick", None, True) == RunProfile(preset="quick")
        assert build_profile(None, "4,8", False) == RunProfile(
            preset="full", sizes=(4, 8)
        )

    def test_build_profile_conflict(self):
        with pytest.raises(ReproError, match="conflicts"):
            build_profile("long", None, True)

    def test_cli_sizes_override(self, capsys):
        import re

        assert main(["E8", "--sizes", "6,12,24"]) == 0
        output = capsys.readouterr().out
        assert "E8" in output and "PASS" in output
        # The override must actually take effect: exactly the requested
        # sizes appear as table rows, none of the default sweep's extras.
        rows = re.findall(r"^\s*(\d+)\s", output, flags=re.MULTILINE)
        assert rows == ["6", "12", "24"]

    def test_cli_bad_sizes_is_clean_usage_error(self, capsys):
        assert_rejected(
            capsys, ["E8", "--sizes", "6,twelve"], "comma-separated integers"
        )

    def test_cli_quick_preset_conflict_is_clean_usage_error(self, capsys):
        assert_rejected(capsys, ["E8", "--quick", "--preset", "long"], "conflicts")

    def test_cli_sizes_notice_for_fixed_sweep_experiments(self, capsys):
        assert main(["E3", "--sizes", "6,12,24", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "E3 has no ring-size sweep" in captured.err
        assert "PASS" in captured.out

    def test_cli_preset_quick_equals_quick_flag(self, capsys):
        assert main(["E11", "--preset", "quick"]) == 0
        preset_output = capsys.readouterr().out
        assert main(["E11", "--quick"]) == 0
        quick_output = capsys.readouterr().out
        assert preset_output == quick_output


class TestShardFlagValidation:
    """--shard/ingest argument hygiene: every bad spelling is a clean
    argparse usage error (exit 2 + a message naming the rule), never a
    traceback or a silent misfill of somebody else's shard."""

    @pytest.mark.parametrize(
        "spelling, message",
        [
            ("0/3", "1-based"),
            ("4/3", "exceeds the fleet size"),
            ("x/3", "two positive integers"),
            ("1/0", "at least one shard"),
            ("1.5/3", "two positive integers"),
        ],
    )
    def test_cli_bad_shard_is_clean_usage_error(
        self, capsys, spelling, message
    ):
        assert_rejected(capsys, ["E9", "--quick", "--shard", spelling], message)

    def test_parse_shard_roundtrip(self):
        from repro.runner import parse_shard

        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("3/3") == (3, 3)
        with pytest.raises(ReproError):
            parse_shard("2/")

    def test_cli_shard_conflicts_with_no_store(self, capsys):
        assert_rejected(
            capsys, ["E9", "--quick", "--shard", "1/3", "--no-store"], "--no-store"
        )

    @pytest.mark.parametrize("command", ["report", "dashboard"])
    def test_cli_shard_rejected_in_read_only_modes(self, capsys, command):
        assert_rejected(capsys, [command, "--quick", "--shard", "1/3"], "--shard")

    def test_cli_ingest_needs_sources(self, capsys):
        assert_rejected(capsys, ["ingest"], "SRC")

    def test_cli_ingest_rejects_run_flags(self, tmp_path, capsys):
        for extra in (["--jobs", "2"], ["--store", "other"], ["--quick"]):
            assert_rejected(capsys, ["ingest", str(tmp_path), *extra], extra[0])

    def test_cli_into_and_strip_seconds_are_ingest_only(self, capsys):
        assert_rejected(capsys, ["E9", "--quick", "--into", "dir"], "--into")
        assert_rejected(
            capsys,
            ["report", "E9", "--quick", "--strip-seconds"],
            "--strip-seconds",
        )


class TestDocs:
    def test_readme_mentions_every_experiment(self):
        """The CI docs check, enforced locally: README.md is the front door
        and must name every registered experiment id."""
        import pathlib
        import re

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        assert readme.is_file(), "README.md is missing"
        text = readme.read_text(encoding="utf-8")
        missing = [
            exp_id
            for exp_id in ALL_EXPERIMENTS
            if not re.search(rf"\b{exp_id}\b", text)
        ]
        assert not missing, f"README.md does not mention: {missing}"


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["E11", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "E11" in output and "PASS" in output

    def test_multiple_experiments(self, capsys):
        assert main(["e8", "E10", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "E8" in output and "E10" in output
        assert "all 2 experiment(s) passed" in output

    def test_unknown_id_raises(self):
        with pytest.raises(ReproError):
            main(["E42", "--quick"])
