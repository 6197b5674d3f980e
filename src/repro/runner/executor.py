"""Single-experiment execution API over the campaign engine.

``execute_plan`` drives one experiment: plan the cells, satisfy what it
can from the run store (``resume=True``), measure the rest — in-process
or on worker processes (CLI ``--jobs N``) — persist every fresh record,
and finalize.  Since the campaign refactor it is a thin wrapper around
:func:`repro.runner.campaign.execute_campaign` with a one-spec fleet;
the scheduling (heaviest-first LPT), streaming store writes, and
drain-then-reraise failure semantics are documented there.  Determinism
does not depend on the backend: each cell's RNG seed is derived from its
identity (:func:`repro.experiments.base.cell_seed`), records are keyed
by cell key, and ``finalize`` folds them in plan order, so serial,
parallel, and resumed runs render byte-identical tables.

Timing: each cell's wall clock is measured around its own execution (in
the worker, for process backends), so per-experiment cost is the *sum of
cell seconds* — meaningful under any ``--jobs`` — while ``wall_seconds``
reports the elapsed dispatch time; the CLI's ``--profile`` prints both.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Subtask,
    run_cell,
    run_subtask,
)
from repro.runner.store import RunStore

__all__ = [
    "CellOutcome",
    "PlanExecution",
    "execute_plan",
    "report_from_store",
]


@dataclass(frozen=True)
class CellOutcome:
    """One cell's measured (or store-loaded) record plus its wall clock.

    ``seconds`` is the cell's full measured cost (for a folded divisible
    cell: the sum of its parts' clocks, wherever they ran).
    ``fresh_seconds`` — set only by the campaign's fold path — is the
    slice of that cost actually measured *in this run*: a resume that
    picked up a half-landed cell re-measures only the missing parts, and
    only those count as busy worker-seconds.
    """

    cell: Cell
    record: dict
    seconds: float
    cached: bool = False
    fresh_seconds: "float | None" = None

    @property
    def busy_seconds(self) -> float:
        """Worker-seconds this outcome cost the *current* run."""
        if self.cached:
            return 0.0
        if self.fresh_seconds is not None:
            return self.fresh_seconds
        return self.seconds


@dataclass
class PlanExecution:
    """Everything one ``execute_plan`` call produced."""

    result: ExperimentResult
    outcomes: list[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    @property
    def cell_seconds(self) -> float:
        """Sum of per-cell wall clocks — the experiment's measured cost,
        independent of how many workers the dispatch loop used."""
        return sum(outcome.seconds for outcome in self.outcomes)

    @property
    def cached_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)


def _timed_run_cell(cell: Cell) -> tuple[dict, float, tuple]:
    """Measure one cell, timing it where it actually runs (the worker).

    The third element is the span's telemetry: ``(worker pid, start,
    stop)`` in ``perf_counter`` time (CLOCK_MONOTONIC on Linux, so
    worker clocks are comparable with the dispatcher's).  It is always
    returned — the measurement is identical whether or not a journal is
    listening, which is what the telemetry-parity byte diffs rely on.
    """
    started = time.perf_counter()
    record = run_cell(cell)
    stopped = time.perf_counter()
    return record, stopped - started, (os.getpid(), started, stopped)


def _timed_run_subtask(subtask: Subtask) -> tuple[dict, float, tuple]:
    """Measure one subtask, timing it where it actually runs."""
    started = time.perf_counter()
    record = run_subtask(subtask)
    stopped = time.perf_counter()
    return record, stopped - started, (os.getpid(), started, stopped)


def execute_plan(
    spec: ExperimentSpec,
    profile: "bool | RunProfile" = False,
    jobs: int = 1,
    store: RunStore | None = None,
    resume: bool = False,
    shard: "tuple[int, int] | None" = None,
    shard_strategy: str = "hash",
) -> PlanExecution:
    """Run one experiment's plan and finalize its result.

    ``store`` persists every freshly measured cell; with ``resume`` the
    store is also consulted first and matching records skip measurement.
    ``jobs > 1`` fans the remaining cells out to worker processes.
    ``shard`` (a 1-based ``(index, total)``) measures only this shard's
    cells of the fleet partition (``shard_strategy``: identity hash or
    weight-balancing LPT); everything measured is persisted, but
    if that leaves the plan incomplete there is no result to finalize,
    so this single-experiment API raises — merge the fleet's stores with
    ``ring-repro ingest`` and render via ``report`` (or drive partial
    fills through :func:`~repro.runner.campaign.execute_campaign`,
    which returns them as ``partial``).

    A plan run is a one-experiment campaign: the scheduling, streaming
    store writes, and failure semantics all live in
    :func:`repro.runner.campaign.execute_campaign`; this wrapper keeps
    the historical single-experiment API.
    """
    # Imported here, not at module top: campaign builds on this module's
    # CellOutcome/PlanExecution, so the dependency runs campaign -> executor.
    from repro.runner.campaign import execute_campaign

    campaign = execute_campaign(
        [spec],
        profile,
        jobs=jobs,
        store=store,
        resume=resume,
        shard=shard,
        shard_strategy=shard_strategy,
    )
    if spec.exp_id not in campaign.executions:
        part = campaign.partial[spec.exp_id]
        raise ReproError(
            f"shard {shard[0]}/{shard[1]} landed {part.landed} of "
            f"{part.planned} {spec.exp_id} cells (every measured record "
            "is persisted); merge the fleet's stores with 'ring-repro "
            "ingest' and render with 'ring-repro report'"
        )
    return campaign.executions[spec.exp_id]


def report_from_store(
    spec: ExperimentSpec,
    profile: "bool | RunProfile",
    store: RunStore,
    cells: "list[Cell] | None" = None,
) -> PlanExecution:
    """Re-render an experiment purely from stored cell records.

    No simulation happens: every cell of the plan must already be in the
    store (:meth:`RunStore.require_all` raises otherwise).  ``cells`` is
    the plan under ``profile`` when the caller already built it.
    """
    profile = RunProfile.coerce(profile)
    started = time.perf_counter()
    if cells is None:
        cells = spec.cells(profile)
    loaded = store.require_all(cells, profile)
    records = {cell.key: loaded[cell.key].record for cell in cells}
    result = spec.finalize(profile, records)
    return PlanExecution(
        result=result,
        outcomes=[
            CellOutcome(
                cell, loaded[cell.key].record, loaded[cell.key].seconds, True
            )
            for cell in cells
        ],
        wall_seconds=time.perf_counter() - started,
        jobs=1,
    )
