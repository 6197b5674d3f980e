"""Fleet sharding tests: partition laws, ingest conflicts, byte identity.

The contracts under test are the fleet advertisements of ``--shard``
and ``ingest``: the shard partition is a pure function of cell identity
— pairwise disjoint, covering, and invariant to request order and
``--jobs`` — so N machines running the same campaign command fill
disjoint covering store subsets; ``ingest`` merges those stores under
explicit conflict rules (dedupe identical records keeping the older,
stale-prune differing-hash rivals with a listed report, skip corrupt
records with a warning, never cross mode boundaries); and the flagship
end-to-end contract: a 3-shard quick campaign, merged, renders
``report --all --refit`` and the dashboard byte-identically to an
unsharded single-machine run of the same campaign.

Wall clocks are the one nondeterministic field a record carries, so the
end-to-end comparisons go through ``ingest --strip-seconds`` on *both*
the merged fleet store and the unsharded baseline — exactly the recipe
the CI ``fleet-ingest`` job uses.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_rejected
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import ALL_SPECS, RunProfile, get_spec
from repro.experiments.base import Cell
from repro.runner import (
    RunStore,
    execute_campaign,
    execute_plan,
    ingest_stores,
    owns,
    parse_shard,
    shard_assignment,
    shard_index,
)
from repro.runner.sharding import campaign_assignment
from repro.runner.store import read_record_payload

from test_campaign import FLEET, QUICK, _fleet_specs


def _store_files(root) -> "dict[str, Path]":
    """Every record file under a store root, keyed by relative path."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*.json")
    }


def _record_sans_seconds(path: Path) -> dict:
    payload = read_record_payload(path)
    payload.pop("seconds")
    return payload


class TestParseShard:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1/1", (1, 1)),
            ("2/3", (2, 3)),
            (" 2 / 3 ", (2, 3)),
            ("10/10", (10, 10)),
        ],
    )
    def test_valid_spellings(self, text, expected):
        assert parse_shard(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["0/3", "4/3", "x/3", "3/x", "1/0", "1/", "/3", "1.5/3", "-1/3", ""],
    )
    def test_malformed_spellings_rejected(self, text):
        with pytest.raises(ReproError, match="--shard"):
            parse_shard(text)

    def test_error_messages_name_the_rule(self):
        with pytest.raises(ReproError, match="1-based"):
            parse_shard("0/3")
        with pytest.raises(ReproError, match="exceeds the fleet size"):
            parse_shard("4/3")


class TestPartitionLaws:
    @given(
        exp_id=st.text(min_size=1, max_size=12),
        key=st.text(min_size=1, max_size=40),
        total=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_identity_lands_on_exactly_one_shard(
        self, exp_id, key, total
    ):
        index = shard_index(exp_id, key, total)
        assert 0 <= index < total
        # Deterministic: the same identity always lands on the same shard.
        assert shard_index(exp_id, key, total) == index
        # Exactly one 1-based shard owns it.
        owners = [
            i for i in range(1, total + 1)
            if shard_index(exp_id, key, total) == i - 1
        ]
        assert owners == [index + 1]

    @pytest.mark.parametrize("total", [1, 2, 3, 5])
    def test_real_plans_partition_disjoint_and_exhaustive(self, total):
        """Every quick-plan cell of every experiment lands on one shard."""
        cells = [
            cell
            for spec in ALL_SPECS.values()
            for cell in spec.cells(QUICK)
        ]
        assert cells
        claimed: "dict[tuple[str, str], int]" = {}
        for index in range(1, total + 1):
            for cell in cells:
                if owns((index, total), cell):
                    identity = (cell.exp_id, cell.key)
                    assert identity not in claimed, (
                        f"{identity} owned by shards "
                        f"{claimed[identity]} and {index}"
                    )
                    claimed[identity] = index
        assert len(claimed) == len({(c.exp_id, c.key) for c in cells})

    def test_assignment_is_pinned(self):
        """Golden values: the partition is part of the fleet protocol.

        A shard reassignment (hash function, encoding, or byte-slice
        change) silently strands every store a running fleet has already
        filled — this test makes that a loud failure instead.
        """
        assert shard_index("E1", "n=4", 3) == 0
        assert shard_index("E1", "n=8", 3) == 1
        assert shard_index("E1", "n=32", 3) == 2
        assert shard_index("E10", "case=prime/n=8/mode=model", 4) == 1

    def test_zero_size_fleet_rejected(self):
        with pytest.raises(ReproError, match="at least one shard"):
            shard_index("E1", "n=4", 0)


class TestShardedCampaign:
    def test_shard_stores_partition_the_unsharded_store(self, tmp_path):
        """3 shard fills produce disjoint file sets covering the base."""
        base = RunStore(tmp_path / "base")
        execute_campaign([get_spec("E9")], QUICK, store=base)
        shard_files = []
        for index in (1, 2, 3):
            store = RunStore(tmp_path / f"shard-{index}")
            execute_campaign(
                [get_spec("E9")], QUICK, store=store, shard=(index, 3)
            )
            shard_files.append(set(_store_files(store.root)))
        base_files = set(_store_files(base.root))
        assert set().union(*shard_files) == base_files
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (shard_files[i] & shard_files[j])

    def test_partition_invariant_to_request_order(self, tmp_path):
        """[E9, E10] and [E10, E9] fill identical shard stores."""
        forward = RunStore(tmp_path / "fwd")
        execute_campaign(
            [get_spec("E9"), get_spec("E10")],
            QUICK,
            store=forward,
            shard=(1, 3),
        )
        backward = RunStore(tmp_path / "bwd")
        execute_campaign(
            [get_spec("E10"), get_spec("E9")],
            QUICK,
            store=backward,
            shard=(1, 3),
        )
        fwd, bwd = _store_files(forward.root), _store_files(backward.root)
        assert set(fwd) == set(bwd)
        for rel in fwd:
            assert _record_sans_seconds(fwd[rel]) == _record_sans_seconds(
                bwd[rel]
            )

    def test_partition_invariant_to_jobs(self, tmp_path):
        """--jobs changes scheduling, never which cells a shard owns."""
        serial = RunStore(tmp_path / "serial")
        execute_campaign(
            [get_spec("E9")], QUICK, store=serial, shard=(1, 3), jobs=1
        )
        parallel = RunStore(tmp_path / "parallel")
        execute_campaign(
            [get_spec("E9")], QUICK, store=parallel, shard=(1, 3), jobs=2
        )
        one, two = _store_files(serial.root), _store_files(parallel.root)
        assert set(one) == set(two)
        for rel in one:
            assert _record_sans_seconds(one[rel]) == _record_sans_seconds(
                two[rel]
            )

    def test_partial_experiments_are_accounted(self, tmp_path):
        """A sharded campaign splits into finalized + partial, losslessly."""
        campaign = execute_campaign(
            _fleet_specs(),
            QUICK,
            store=RunStore(tmp_path / "s1"),
            shard=(1, 3),
        )
        assert campaign.shard == (1, 3)
        assert set(campaign.executions) | set(campaign.partial) == set(FLEET)
        assert not (set(campaign.executions) & set(campaign.partial))
        # Lossless accounting in work-item units: divisible cells ride
        # as their subtasks, so the planned pool counts K items per
        # divided cell, and so do the landed cells (with the hash
        # strategy a cell's parts stay together, so every landed cell
        # accounts for ALL of its items).
        def items(cell: Cell) -> int:
            return len(cell.subtasks()) if cell.divisible else 1

        planned = sum(
            items(cell)
            for spec in _fleet_specs()
            for cell in spec.cells(QUICK)
        )
        landed = sum(
            items(outcome.cell)
            for execution in (
                list(campaign.executions.values())
                + list(campaign.partial.values())
            )
            for outcome in execution.outcomes
        )
        assert landed + campaign.sharded_out == planned
        for part in campaign.partial.values():
            assert part.landed < part.planned
            for outcome in part.outcomes:
                assert owns((1, 3), outcome.cell)

    def test_execute_plan_refuses_partial_shard(self, tmp_path):
        """The single-experiment API has no partial result to return."""
        store = RunStore(tmp_path / "s1")
        with pytest.raises(ReproError, match="ingest"):
            execute_plan(get_spec("E9"), QUICK, store=store, shard=(1, 3))
        # Everything the shard measured was persisted before the raise.
        assert _store_files(store.root)

    def test_cli_shard_summary_line(self, tmp_path, capsys):
        rc = main(
            [
                "E9",
                "--quick",
                "--shard",
                "1/3",
                "--store",
                str(tmp_path / "s1"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[shard 1/3: measured" in out
        assert "ring-repro ingest" in out
        # Partial experiments mean no blanket pass claim.
        assert "experiment(s) passed" not in out


class TestIngestConflicts:
    def _plant(self, store: RunStore, exp_id="E9", profile=QUICK):
        """Fill one experiment and return its (cells, profile) plan."""
        execute_campaign([get_spec(exp_id)], profile, store=store)
        return get_spec(exp_id).cells(profile)

    def test_identical_records_dedupe_keeping_older(self, tmp_path):
        """Overlapping shard uploads merge to one copy per record."""
        first = RunStore(tmp_path / "first")
        second = RunStore(tmp_path / "second")
        self._plant(first)
        self._plant(second)
        report = ingest_stores(
            [first.root, second.root], tmp_path / "merged"
        )
        merged = _store_files(tmp_path / "merged")
        assert len(report.ingested) == len(merged)
        assert len(report.deduped) == len(merged)
        assert not report.pruned and not report.skipped
        # The kept copies are the earliest-listed source's records.
        assert all(
            path.is_relative_to(second.root) for path in report.deduped
        )

    def test_records_already_in_dest_win_dedupe(self, tmp_path):
        dest = RunStore(tmp_path / "merged")
        self._plant(dest)
        before = {
            rel: path.read_bytes()
            for rel, path in _store_files(dest.root).items()
        }
        src = RunStore(tmp_path / "src")
        self._plant(src)
        report = ingest_stores([src.root], dest.root)
        assert not report.ingested
        assert len(report.deduped) == len(before)
        after = {
            rel: path.read_bytes()
            for rel, path in _store_files(dest.root).items()
        }
        assert after == before

    def test_stale_conflict_keeps_current_code_hash(self, tmp_path):
        """Differing-hash rivals: the loadable-today record wins, listed.

        The stale rival is planted by rewriting a real record with a
        forged config hash — the shape an old-code shard upload has —
        in *both* source orders, so the arbiter (not listing order)
        decides.
        """
        genuine = RunStore(tmp_path / "genuine")
        self._plant(genuine)
        rel, path = sorted(_store_files(genuine.root).items())[0]
        payload = read_record_payload(path)
        current_hash = payload["config_hash"]
        stale = RunStore(tmp_path / "stale")
        forged = dict(payload, config_hash="0" * len(current_hash))
        forged_path = stale.write_payload(forged)
        for order in (["stale", "genuine"], ["genuine", "stale"]):
            dest = tmp_path / f"merged-{order[0]}-first"
            report = ingest_stores(
                [tmp_path / name for name in order], dest
            )
            assert len(report.pruned) == 1
            conflict = report.pruned[0]
            assert conflict.kept_hash == current_hash
            assert conflict.dropped_hash == forged["config_hash"]
            assert conflict.reason == "superseded by current code"
            assert "superseded by current code" in conflict.describe()
            merged = _store_files(dest)
            assert rel in merged
            assert (
                read_record_payload(merged[rel])["config_hash"]
                == current_hash
            )
            assert forged_path.name not in {
                Path(r).name for r in merged
            }

    def test_stale_conflict_in_dest_is_pruned_too(self, tmp_path):
        """A stale record pre-existing in the destination also loses."""
        dest = RunStore(tmp_path / "merged")
        genuine = RunStore(tmp_path / "genuine")
        self._plant(genuine)
        rel, path = sorted(_store_files(genuine.root).items())[0]
        payload = read_record_payload(path)
        forged = dict(payload, config_hash="0" * len(payload["config_hash"]))
        forged_path = dest.write_payload(forged)
        report = ingest_stores([genuine.root], dest.root)
        assert len(report.pruned) == 1
        assert not forged_path.exists()
        merged = _store_files(dest.root)
        assert (
            read_record_payload(merged[rel])["config_hash"]
            == payload["config_hash"]
        )

    def test_unknown_hash_pairs_keep_the_older_record(self, tmp_path):
        """Neither rival loadable today (two --sizes generations, say):
        the first-merged record wins, deterministically."""
        genuine = RunStore(tmp_path / "genuine")
        self._plant(genuine)
        rel, path = sorted(_store_files(genuine.root).items())[0]
        payload = read_record_payload(path)
        width = len(payload["config_hash"])
        older = RunStore(tmp_path / "older")
        newer = RunStore(tmp_path / "newer")
        older.write_payload(dict(payload, config_hash="a" * width))
        newer.write_payload(dict(payload, config_hash="b" * width))
        report = ingest_stores(
            [older.root, newer.root], tmp_path / "merged"
        )
        assert len(report.pruned) == 1
        conflict = report.pruned[0]
        assert conflict.kept_hash == "a" * width
        assert conflict.dropped_hash == "b" * width
        assert conflict.reason == "older record wins"
        kept = [
            record
            for record in map(
                read_record_payload, _store_files(tmp_path / "merged").values()
            )
            if record["key"] == payload["key"]
        ]
        assert len(kept) == 1
        assert kept[0]["config_hash"] == "a" * width

    def test_modes_never_conflict(self, tmp_path):
        """sim- and model-backed records of one (experiment, size) are
        distinct identities: merging shards of both modes keeps both."""
        sim = RunStore(tmp_path / "sim")
        model = RunStore(tmp_path / "model")
        self._plant(sim, "E9", QUICK)
        self._plant(model, "E9", RunProfile(preset="quick", mode="model"))
        report = ingest_stores([sim.root, model.root], tmp_path / "merged")
        assert not report.deduped and not report.pruned
        merged = _store_files(tmp_path / "merged")
        assert set(merged) == set(_store_files(sim.root)) | set(
            _store_files(model.root)
        )

    def test_corrupt_records_skip_with_warning(self, tmp_path):
        """One truncated shard upload never poisons the merge."""
        src = RunStore(tmp_path / "src")
        self._plant(src)
        files = sorted(_store_files(src.root).values())
        files[0].write_text(files[0].read_text()[:40])  # truncated JSON
        files[1].write_text(json.dumps({"exp_id": "E9"}))  # missing fields
        with pytest.warns(RuntimeWarning, match="skipping corrupt record"):
            report = ingest_stores([src.root], tmp_path / "merged")
        assert len(report.skipped) == 2
        assert {path for path, _reason in report.skipped} == set(files[:2])
        assert len(report.ingested) == len(files) - 2

    def test_strip_seconds_zeroes_wall_clocks(self, tmp_path):
        src = RunStore(tmp_path / "src")
        self._plant(src)
        assert any(
            read_record_payload(path)["seconds"] > 0
            for path in _store_files(src.root).values()
        )
        ingest_stores([src.root], tmp_path / "merged", strip_seconds=True)
        merged = _store_files(tmp_path / "merged")
        assert merged
        for path in merged.values():
            assert read_record_payload(path)["seconds"] == 0.0

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="not a directory"):
            ingest_stores([tmp_path / "absent"], tmp_path / "merged")

    def test_cli_ingest_reports_summary(self, tmp_path, capsys):
        src = RunStore(tmp_path / "src")
        self._plant(src)
        rc = main(
            [
                "ingest",
                str(src.root),
                "--into",
                str(tmp_path / "merged"),
                "--strip-seconds",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingested" in out and str(tmp_path / "merged") in out
        assert _store_files(tmp_path / "merged")


# The flagship end-to-end contract.  One module-scoped fill: an
# unsharded quick campaign (mixed sim/model/verify cells) next to the
# same campaign split across 3 shard legs, then both merged through
# ``ingest --strip-seconds`` into a/runs and b/runs — relative store
# names, so the dashboards rendered from them embed identical roots.
FLEET_SIZE = 3


@pytest.fixture(scope="module")
def fleet_telemetry(tmp_path_factory):
    """A journal root for the module-scoped fills below.

    Module-scoped fixtures run outside conftest's per-test telemetry
    isolation, so without this the fills journal into ``runs/``.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_TELEMETRY_DIR", str(tmp_path_factory.mktemp("telemetry"))
    )
    yield
    patch.undo()


@pytest.fixture(scope="module")
def fleet_stores(tmp_path_factory, fleet_telemetry):
    root = tmp_path_factory.mktemp("fleet")
    fills = [
        ["all", "--quick"],
        ["E9", "E10", "--quick", "--mode", "verify"],
        ["E9", "E10", "--quick", "--mode", "model"],
    ]
    for fill in fills:
        assert main([*fill, "--store", str(root / "base"), "--jobs", "2"]) == 0
    for index in range(1, FLEET_SIZE + 1):
        for fill in fills:
            assert (
                main(
                    [
                        *fill,
                        "--shard",
                        f"{index}/{FLEET_SIZE}",
                        "--store",
                        str(root / f"shard-{index}"),
                        "--jobs",
                        "2",
                    ]
                )
                == 0
            )
    (root / "a").mkdir()
    (root / "b").mkdir()
    ingest_stores([root / "base"], root / "a" / "runs", strip_seconds=True)
    ingest_stores(
        [root / f"shard-{index}" for index in range(1, FLEET_SIZE + 1)],
        root / "b" / "runs",
        strip_seconds=True,
    )
    return root


class TestFleetByteIdentity:
    def test_shard_stores_partition_the_base_store(self, fleet_stores):
        base = set(_store_files(fleet_stores / "base"))
        shards = [
            set(_store_files(fleet_stores / f"shard-{index}"))
            for index in range(1, FLEET_SIZE + 1)
        ]
        assert set().union(*shards) == base
        assert sum(len(files) for files in shards) == len(base)
        # Every shard got real work — the quick campaign is large
        # enough that an empty leg means the partition is broken.
        assert all(shards)

    def test_merged_store_byte_identical_to_unsharded(self, fleet_stores):
        merged = _store_files(fleet_stores / "b" / "runs")
        baseline = _store_files(fleet_stores / "a" / "runs")
        assert set(merged) == set(baseline)
        for rel in merged:
            assert (
                merged[rel].read_bytes() == baseline[rel].read_bytes()
            ), rel

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--all", "--refit", "--quick"],
            ["report", "E9", "E10", "--refit", "--quick", "--mode", "verify"],
            ["report", "E9", "E10", "--quick", "--mode", "model"],
        ],
        ids=["campaign-sim", "verify", "model"],
    )
    def test_report_byte_identical(self, fleet_stores, capsys, argv):
        outputs = []
        for side in ("a", "b"):
            rc = main(
                [*argv, "--store", str(fleet_stores / side / "runs")]
            )
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "RESULT: PASS" in outputs[0]

    def test_dashboard_byte_identical(self, fleet_stores, monkeypatch):
        sites = []
        for side in ("a", "b"):
            # chdir + relative paths: campaign.json embeds the store
            # root, so both renders must name it identically.
            monkeypatch.chdir(fleet_stores / side)
            rc = main(
                [
                    "dashboard",
                    "--quick",
                    "--store",
                    "runs",
                    "--out",
                    "site",
                    "--fleet",
                    str(FLEET_SIZE),
                ]
            )
            assert rc == 0
            sites.append(
                {
                    path.name: path.read_bytes()
                    for path in (fleet_stores / side / "site").iterdir()
                }
            )
        assert sites[0].keys() == sites[1].keys()
        for name in sites[0]:
            assert sites[0][name] == sites[1][name], name
        payload = json.loads(sites[0]["campaign.json"].decode())
        assert payload["fleet"] == FLEET_SIZE
        # The derived shard column matches the partition that filled
        # the shard stores.
        for exp_id, experiment in payload["experiments"].items():
            for cell in experiment["cells"]:
                expected = shard_index(exp_id, cell["key"], FLEET_SIZE) + 1
                assert cell["shard"] == f"{expected}/{FLEET_SIZE}"


def _noop_cell_fn(params, rng):  # pragma: no cover - never measured
    return {}


def _cell(exp_id: str, key: str, weight: float) -> Cell:
    """A minimal cell carrying just the identity + weight LPT looks at."""
    return Cell(
        exp_id=exp_id, key=key, fn=_noop_cell_fn, params={}, seed=0,
        weight=weight,
    )


def _loads(cells, assignment, total) -> "list[float]":
    weights = {(exp_id, cell.key): cell.weight for exp_id, cell in cells}
    loads = [0.0] * total
    for identity, shard in assignment.items():
        loads[shard] += weights[identity]
    return loads


class TestWeightStrategy:
    """--shard-strategy weight: deterministic LPT over planned weights."""

    def _quick_cells(self):
        return [
            (spec.exp_id, cell)
            for spec in ALL_SPECS.values()
            for cell in spec.cells(QUICK)
        ]

    def test_assignment_is_pinned(self):
        """Golden values: the weight partition is fleet protocol too.

        Heaviest first, each to the lightest shard, ties toward the
        lowest shard index — any change to that rule strands running
        weight-sharded fleets exactly like a hash change would.
        """
        cells = [
            ("E1", _cell("E1", "n=8", 8.0)),
            ("E1", _cell("E1", "n=6", 6.0)),
            ("E1", _cell("E1", "n=5", 5.0)),
            ("E1", _cell("E1", "n=4", 4.0)),
            ("E1", _cell("E1", "n=3a", 3.0)),
            ("E1", _cell("E1", "n=3b", 3.0)),
        ]
        assignment = shard_assignment(cells, 2, "weight")
        assert assignment == {
            ("E1", "n=8"): 0,
            ("E1", "n=6"): 1,
            ("E1", "n=5"): 1,
            ("E1", "n=4"): 0,
            ("E1", "n=3a"): 1,
            ("E1", "n=3b"): 0,
        }
        loads = _loads(cells, assignment, 2)
        assert loads == [15.0, 14.0]

    def test_weight_tie_breaks_are_total(self):
        """Equal weights order by (exp_id, key): no ambiguity left."""
        cells = [
            ("E2", _cell("E2", "n=1", 1.0)),
            ("E1", _cell("E1", "n=2", 1.0)),
            ("E1", _cell("E1", "n=1", 1.0)),
        ]
        assignment = shard_assignment(cells, 2, "weight")
        assert assignment == {
            ("E1", "n=1"): 0,
            ("E1", "n=2"): 1,
            ("E2", "n=1"): 0,
        }

    @pytest.mark.parametrize("total", [1, 2, 3, 5])
    def test_partition_laws_on_real_plans(self, total):
        """Disjoint, covering, deterministic, order-invariant."""
        cells = self._quick_cells()
        assignment = shard_assignment(cells, total, "weight")
        assert set(assignment) == {(e, c.key) for e, c in cells}
        assert set(assignment.values()) <= set(range(total))
        assert shard_assignment(cells, total, "weight") == assignment

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_order_invariance(self, seed):
        """Any permutation of the planned cells partitions identically."""
        import random as _random

        cells = self._quick_cells()
        baseline = shard_assignment(cells, 3, "weight")
        shuffled = list(cells)
        _random.Random(seed).shuffle(shuffled)
        assert shard_assignment(shuffled, 3, "weight") == baseline

    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=1000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        total=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    @example(weights=[1, 1, 1, 5, 431, 451, 453, 433], total=2)
    def test_lpt_never_loses_to_hash(self, weights, total):
        """LPT's max planned load is within Graham's bound of the hash's.

        LPT is a (4/3 - 1/(3m))-approximation of the optimal makespan,
        not the optimum, so a lucky hash split can beat it: the pinned
        example gives LPT 889 against hash 888.  The hash split can
        never beat the optimum, so Graham's bound holds against it.
        """
        cells = [
            ("EW", _cell("EW", f"n={i}", weight))
            for i, weight in enumerate(weights)
        ]
        lpt = _loads(cells, shard_assignment(cells, total, "weight"), total)
        hashed = _loads(cells, shard_assignment(cells, total, "hash"), total)
        bound = 4 / 3 - 1 / (3 * total)
        assert max(lpt) <= bound * max(hashed) + 1e-9

    def test_lpt_beats_hash_on_heavy_tail(self):
        """A crafted heavy tail the hash provably bunches, LPT spreads.

        ``shard_index("EW", "n=0", 2) == shard_index("EW", "n=3", 2)``
        (both hash to shard 0), so hash puts both heavy cells on one
        shard; LPT puts one on each.
        """
        assert shard_index("EW", "n=0", 2) == shard_index("EW", "n=3", 2)
        cells = [
            ("EW", _cell("EW", "n=0", 100.0)),
            ("EW", _cell("EW", "n=3", 100.0)),
            ("EW", _cell("EW", "n=1", 1.0)),
            ("EW", _cell("EW", "n=2", 1.0)),
        ]
        lpt = _loads(cells, shard_assignment(cells, 2, "weight"), 2)
        hashed = _loads(cells, shard_assignment(cells, 2, "hash"), 2)
        assert max(lpt) < max(hashed)
        assert max(lpt) == 101.0

    def test_quick_campaign_max_load_improves(self):
        """On the real quick campaign the balance strictly improves."""
        cells = self._quick_cells()
        for total in (2, 4):
            lpt = _loads(
                cells, shard_assignment(cells, total, "weight"), total
            )
            hashed = _loads(
                cells, shard_assignment(cells, total, "hash"), total
            )
            assert max(lpt) < max(hashed)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError, match="unknown shard strategy"):
            shard_assignment([], 2, "roundrobin")

    def test_weight_shards_partition_the_unsharded_store(self, tmp_path):
        """Weight-sharded legs merge back into exactly the baseline.

        E9's quick cells are divisible and the weight strategy splits
        one cell's parts across legs — so a single leg holds a mix of
        full records (cells it owns whole) and ``.json.part`` records
        (its share of split cells), pairwise disjoint across legs, and
        only the ingest fold reassembles the full baseline set.
        """
        base = RunStore(tmp_path / "base")
        execute_campaign([get_spec("E9")], QUICK, store=base)
        roots = []
        leg_items: "list[set[str]]" = []
        for index in (1, 2, 3):
            store = RunStore(tmp_path / f"shard-{index}")
            execute_campaign(
                [get_spec("E9")],
                QUICK,
                store=store,
                shard=(index, 3),
                shard_strategy="weight",
            )
            roots.append(store.root)
            leg_items.append(
                set(_store_files(store.root))
                | {
                    path.relative_to(store.root).as_posix()
                    for path in store.root.rglob("*.json.part")
                }
            )
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (leg_items[i] & leg_items[j])
        report = ingest_stores(roots, tmp_path / "merged")
        assert not report.parts_carried  # every split cell reassembled
        assert set(_store_files(tmp_path / "merged")) == set(
            _store_files(base.root)
        )
        assert not list((tmp_path / "merged").rglob("*.json.part"))

    def test_partition_ignores_resume_state(self, tmp_path):
        """A pre-filled store must not change which cells a leg owns.

        The assignment is computed over every *planned* cell; if it were
        computed over the post-resume leftovers, a leg that resumed a
        partial store would re-balance onto cells another leg owns.
        """
        spec = get_spec("E9")
        # The campaign partitions *work items* — divisible cells ride as
        # their subtasks — so compute ownership the same way: a cell's
        # full record lands on leg 1 only when leg 1 owns every part.
        items: "list[tuple[str, object]]" = []
        for cell in spec.cells(QUICK):
            if cell.divisible:
                items.extend(
                    (spec.exp_id, subtask) for subtask in cell.subtasks()
                )
            else:
                items.append((spec.exp_id, cell))
        assignment = campaign_assignment(items, 2, "weight")
        owned_items = {
            identity for identity, shard in assignment.items() if shard == 0
        }
        owned_fresh = set()
        for cell in spec.cells(QUICK):
            part_keys = (
                {(spec.exp_id, s.key) for s in cell.subtasks()}
                if cell.divisible
                else {(spec.exp_id, cell.key)}
            )
            if part_keys <= owned_items:
                owned_fresh.add((spec.exp_id, cell.key))
        # Pre-fill the whole experiment, then resume leg 1/2: nothing to
        # measure, but the partition (sharded_out accounting) must match
        # the fresh assignment.
        store = RunStore(tmp_path / "prefilled")
        execute_campaign([spec], QUICK, store=store)
        campaign = execute_campaign(
            [spec],
            QUICK,
            store=store,
            resume=True,
            shard=(1, 2),
            shard_strategy="weight",
        )
        assert campaign.sharded_out == 0  # store hits satisfy everything
        assert campaign.executions  # finalized purely from the store
        # And a fresh (no-store) leg measures exactly the owned set.
        fresh = RunStore(tmp_path / "fresh")
        execute_campaign(
            [spec], QUICK, store=fresh, shard=(1, 2),
            shard_strategy="weight",
        )
        measured = {
            ("E9", payload["key"])
            for payload in map(
                read_record_payload, _store_files(fresh.root).values()
            )
        }
        assert measured == owned_fresh

    def test_cli_strategy_requires_shard(self, tmp_path, capsys):
        assert_rejected(
            capsys,
            ["E9", "--quick", "--shard-strategy", "weight",
             "--store", str(tmp_path / "s")],
            "--shard-strategy only applies",
        )

    def test_cli_weight_leg_runs(self, tmp_path, capsys):
        rc = main(
            [
                "E9",
                "--quick",
                "--shard",
                "1/2",
                "--shard-strategy",
                "weight",
                "--store",
                str(tmp_path / "s1"),
            ]
        )
        assert rc == 0
        assert "[shard 1/2: measured" in capsys.readouterr().out
