"""Benchmark: divisible cells break the max-cell makespan floor.

Layer-10 perf work (PERFORMANCE.md): a weight-sharded fleet's makespan
is bounded below by its heaviest *work item*.  While cells are atomic
that floor is the heaviest cell — PR 8's ``E9 E10 --sizes
1024,2048,3072`` fleet bottomed out at ~5.4 s on 4 shards because the
two n^2@3072 simulation cells ride whole.  Divisible cells decompose
into subtasks the weight strategy schedules independently, dropping the
floor to the heaviest *subtask* (Σ/N plus the largest part).  The
measured monolithic-versus-divided makespans are committed in
``BENCH_2026-08-08_split.json`` (and ``LEDGER.jsonl``).

``pytest benchmarks/bench_split.py`` runs correctness-asserting smoke
rows for the bench-smoke CI job (quick workload, timing optional): a
divided quick campaign folds every cell it splits, and the weight
partition provably places one cell's parts on different shards.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from bench_harness import journals_in_tmp  # noqa: F401 (autouse fixture)
from repro.experiments import RunProfile, get_spec
from repro.runner import RunStore, execute_campaign
from repro.runner.sharding import campaign_assignment

QUICK = RunProfile(preset="quick")


def bench_quick_divided_campaign(benchmark):
    """A divided quick campaign folds every cell it splits (E2+E9).

    The correctness payload of the timing: subtasks ran, folds landed,
    no ``.json.part`` residue outlived its fold, and both experiments
    still pass on the folded records.
    """

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            store = RunStore(Path(tmp))
            campaign = execute_campaign(
                [get_spec("E2"), get_spec("E9")], QUICK, jobs=1, store=store
            )
            residue = list(Path(tmp).rglob("*.json.part"))
            return campaign, residue

    campaign, residue = benchmark.pedantic(run, rounds=1, iterations=1)
    assert campaign.subtasks_run > 0
    assert campaign.cells_folded > 0
    assert residue == []
    for execution in campaign.executions.values():
        assert execution.result is not None and execution.result.passed


def bench_weight_partition_splits_divisible_cells(benchmark):
    """The weight strategy schedules subtasks independently.

    Expanding the quick fleet campaign into work items and LPT-ing over
    them must place at least one divisible cell's parts on *different*
    shards — the whole point of divisibility (hash sharding, by
    contrast, keys parts by their owning cell and never separates them).
    """
    specs = [get_spec(exp_id) for exp_id in ("E2", "E8", "E9", "E10", "E11")]

    def expanded():
        items = []
        for spec in specs:
            for cell in spec.cells(QUICK):
                if cell.divisible:
                    items.extend(
                        (spec.exp_id, subtask) for subtask in cell.subtasks()
                    )
                else:
                    items.append((spec.exp_id, cell))
        return items, campaign_assignment(items, 2, "weight")

    items, assignment = benchmark.pedantic(expanded, rounds=1, iterations=1)
    shards_by_cell: "dict[tuple[str, str], set[int]]" = {}
    for exp_id, item in items:
        cell_key = getattr(item, "cell_key", None)
        if cell_key is not None:
            shards_by_cell.setdefault((exp_id, cell_key), set()).add(
                assignment[(exp_id, item.key)]
            )
    assert any(len(shards) > 1 for shards in shards_by_cell.values())
    hashed = campaign_assignment(items, 2, "hash")
    hash_by_cell: "dict[tuple[str, str], set[int]]" = {}
    for exp_id, item in items:
        cell_key = getattr(item, "cell_key", None)
        if cell_key is not None:
            hash_by_cell.setdefault((exp_id, cell_key), set()).add(
                hashed[(exp_id, item.key)]
            )
    assert all(len(shards) == 1 for shards in hash_by_cell.values())

