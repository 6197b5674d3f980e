"""Campaign execution: one shared cell pool across many experiments.

``execute_plan`` drains one experiment at a time, so running a fleet of
experiments serializes twelve makespans — each experiment's tail leaves
workers idle until the next pool spins up.  A *campaign* flattens every
requested experiment's plan into a single global cell list, schedules it
heaviest-first (LPT across the whole fleet, not per experiment) on one
shared executor, streams finished cells into the run store as they land,
and finalizes each experiment the moment its own last cell completes —
there is no global barrier, so an experiment whose cells happen to
finish early renders early even while Θ(n²) cells of another experiment
are still running.

Determinism is inherited wholesale from the cell model: every cell's RNG
seed derives from its ``(exp_id, key)`` identity and finalize folds
records in plan order, so a campaign renders tables byte-identical to
the per-experiment path at every worker count (the CLI's CI jobs diff
them).

Divisible cells (:meth:`repro.experiments.base.Cell.divisible`) do not
enter the pool whole: their declared ``split`` decomposes them into
subtasks that are scheduled as first-class work items — interleaved
with ordinary cells in the same heaviest-first order — and the pure
``fold`` reducer reconstructs the cell record the moment its last part
lands.  Each landed part streams into the store as a ``.json.part``
record under the cell's key, so a killed campaign resumes mid-cell.
A campaign splits every divisible cell; the monolithic path
(:func:`repro.experiments.base.run_cell`, and so
:meth:`~repro.experiments.base.ExperimentSpec.run`) is the
byte-for-byte oracle.

``CampaignExecution`` additionally accounts the campaign as a whole:
``busy_seconds`` (worker-seconds spent measuring, folding, and
finalizing, excluding store hits) against ``wall_seconds * jobs`` gives
the pool utilization that ``--profile`` reports.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.experiments.base import (
    Cell,
    ExperimentSpec,
    RunProfile,
    Subtask,
    fold_cell,
)
from repro.obs.journal import JOURNAL_SCHEMA, Journal, activate
from repro.runner.executor import (
    CellOutcome,
    PlanExecution,
    _timed_run_cell,
    _timed_run_subtask,
)
from repro.runner.sharding import campaign_assignment
from repro.runner.store import RunStore

__all__ = ["CampaignExecution", "PartialExecution", "execute_campaign"]

ResultCallback = Callable[[str, PlanExecution], None]


@dataclass(frozen=True)
class PartialExecution:
    """A sharded campaign's leftovers for one unfinalized experiment.

    Under ``--shard i/N`` most experiments land only the cells this
    shard owns (plus any store hits), so they cannot finalize; their
    landed outcomes are still accounted here — the shard summary and
    ``--profile`` totals stay honest — and the experiment renders after
    ``ring-repro ingest`` merges the fleet's stores.
    """

    outcomes: "list[CellOutcome]" = field(default_factory=list)
    planned: int = 0

    @property
    def landed(self) -> int:
        return len(self.outcomes)


@dataclass
class CampaignExecution:
    """Everything one campaign produced, per experiment and in aggregate.

    ``executions`` is keyed by experiment id in *requested* order (which
    is also render order); per-experiment ``wall_seconds`` is the time
    from campaign start to that experiment's finalize — under a shared
    pool an experiment has no exclusive wall clock of its own, so its
    measured cost is ``cell_seconds`` as before.

    Under ``--shard i/N`` only experiments whose every cell landed (from
    this shard's measurements plus store hits) appear in ``executions``;
    the rest are in ``partial``, and ``sharded_out`` counts the work
    items — whole cells and divided cells' subtasks — deterministically
    left to the other shards.  Unsharded campaigns always finalize
    everything: ``partial`` is empty, ``sharded_out`` 0.
    """

    executions: dict[str, PlanExecution] = field(default_factory=dict)
    wall_seconds: float = 0.0
    jobs: int = 1
    shard: "tuple[int, int] | None" = None
    partial: "dict[str, PartialExecution]" = field(default_factory=dict)
    sharded_out: int = 0
    subtasks_run: int = 0
    cells_folded: int = 0
    fold_seconds: float = 0.0
    finalize_seconds: float = 0.0
    partial_fresh_seconds: float = 0.0
    # The campaign's span journal (None under REPRO_NO_TELEMETRY=1):
    # events stay in memory here so --profile can attribute idle time
    # without re-reading the sidecar file.
    journal: "Journal | None" = None

    def _outcomes(self):
        for ex in self.executions.values():
            yield from ex.outcomes
        for part in self.partial.values():
            yield from part.outcomes

    @property
    def cell_count(self) -> int:
        return sum(1 for _ in self._outcomes())

    @property
    def cached_count(self) -> int:
        return sum(1 for outcome in self._outcomes() if outcome.cached)

    @property
    def measured_seconds(self) -> float:
        """Worker-seconds spent actually measuring *in this run*.

        Store hits are free; a folded cell assembled partly from
        resumed ``.json.part`` records counts only its freshly measured
        parts; ``partial_fresh_seconds`` carries the parts measured for
        cells this run could not complete (a weight-sharded fleet may
        split one cell's parts across legs).
        """
        return (
            sum(outcome.busy_seconds for outcome in self._outcomes())
            + self.partial_fresh_seconds
        )

    @property
    def busy_seconds(self) -> float:
        """All busy worker-seconds: measuring, folding, finalizing.

        Fold and finalize run in the dispatching process between cell
        landings — real work the pool cannot overlap with, so counting
        it keeps the utilization line from inflating reported idle.
        """
        return (
            self.measured_seconds + self.fold_seconds + self.finalize_seconds
        )

    @property
    def model_cell_count(self) -> int:
        """How many cells took the analytic fast path (no simulator)."""
        return sum(
            1 for outcome in self._outcomes() if outcome.cell.mode == "model"
        )

    @property
    def calibration(self) -> "dict[str, int]":
        """Verify-cell verdict tally across the whole campaign.

        ``{"PASS": ..., "FAIL": ...}`` over every cell whose record
        carries a bit-for-bit calibration verdict; all zeros for pure
        sim or pure model campaigns.  Anything but a literal ``"PASS"``
        counts as FAIL — the model-parity CI job fails closed.
        """
        counts = {"PASS": 0, "FAIL": 0}
        for outcome in self._outcomes():
            record = outcome.record
            if isinstance(record, dict) and record.get("mode") == "verify":
                verdict = record.get("verdict")
                counts["PASS" if verdict == "PASS" else "FAIL"] += 1
        return counts

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over elapsed capacity (``wall * jobs``).

        1.0 means every worker measured cells the whole campaign; low
        values expose scheduling tails or store-dominated runs.
        """
        capacity = self.wall_seconds * self.jobs
        return self.busy_seconds / capacity if capacity > 0 else 0.0


@dataclass
class _ExperimentState:
    """Mutable per-experiment bookkeeping while its cells are in flight."""

    spec: ExperimentSpec
    cells: list[Cell]
    outcomes: dict[str, CellOutcome] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return len(self.outcomes) == len(self.cells)


@dataclass
class _CellAssembly:
    """Mutable bookkeeping for one divided cell's in-flight parts.

    ``parts``/``part_seconds`` accumulate landed records (freshly
    measured or resumed from ``.json.part`` files); ``fresh_seconds``
    counts only the former — the cell's busy cost in *this* run.
    """

    state: _ExperimentState
    cell: Cell
    expected: "list[Subtask]"
    parts: "dict[str, dict]" = field(default_factory=dict)
    part_seconds: "dict[str, float]" = field(default_factory=dict)
    fresh_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return len(self.parts) == len(self.expected)


def execute_campaign(
    specs: Sequence[ExperimentSpec],
    profile: "bool | RunProfile" = False,
    jobs: int = 1,
    store: RunStore | None = None,
    resume: bool = False,
    on_result: ResultCallback | None = None,
    shard: "tuple[int, int] | None" = None,
    shard_strategy: str = "hash",
) -> CampaignExecution:
    """Run many experiments as one shared-pool campaign.

    Cells from all ``specs`` are scheduled together (heaviest first);
    ``jobs`` is the worker count for the *whole* campaign.  ``store``
    persists every freshly measured cell as it lands (a killed campaign
    keeps everything finished so far for ``--resume``); with ``resume``
    matching stored records skip measurement.  ``on_result`` fires with
    ``(exp_id, PlanExecution)`` the moment an experiment finalizes —
    completion order, not requested order — so callers can stream
    results; ``executions`` in the returned value is requested order.

    ``shard`` — the CLI's ``--shard i/N`` as a 1-based ``(index,
    total)`` — restricts *measurement* to the cells this shard owns
    under the fleet partition
    (:func:`repro.runner.sharding.shard_assignment`), a pure function
    of the campaign, so every shard of a fleet agrees on the split
    regardless of request order or ``jobs``.  ``shard_strategy``
    selects it: ``"hash"`` (default) assigns each cell by a stable
    identity hash; ``"weight"`` balances the campaign's planned cell
    weights with a deterministic LPT pass.  The assignment is computed
    over *all* planned cells — not the post-resume leftovers — so
    resume state never changes the partition.  Store hits still
    satisfy any cell; experiments left incomplete end up in
    ``CampaignExecution.partial`` instead of finalizing.

    Failure semantics match :func:`~repro.runner.executor.execute_plan`:
    serial runs raise at the failing cell, pooled runs drain every
    sibling (persisting them) before re-raising the first failure.

    Every campaign journals its spans (cells, subtasks, folds,
    finalizes, store writes) to an append-only JSONL sidecar under the
    telemetry root (:mod:`repro.obs.journal`) — strictly outside the
    run store, so records, tables, and reports are byte-identical with
    telemetry disabled (``REPRO_NO_TELEMETRY=1``).  The journal rides
    back on ``CampaignExecution.journal`` for ``--profile``'s idle
    attribution and the weight-calibration warnings.
    """
    journal = Journal.open("campaign")
    try:
        # Activated for the whole run so deep layers (store saves) can
        # note events without threading the journal through signatures.
        with activate(journal):
            return _run_campaign(
                specs,
                profile,
                jobs,
                store,
                resume,
                on_result,
                shard,
                shard_strategy,
                journal,
            )
    finally:
        if journal is not None:
            journal.close()


def _run_campaign(
    specs: Sequence[ExperimentSpec],
    profile: "bool | RunProfile",
    jobs: int,
    store: RunStore | None,
    resume: bool,
    on_result: ResultCallback | None,
    shard: "tuple[int, int] | None",
    shard_strategy: str,
    journal: "Journal | None",
) -> CampaignExecution:
    if jobs < 1:
        raise ReproError(f"--jobs needs a positive worker count, got {jobs}")
    if shard is not None:
        index, total = shard
        if not 1 <= index <= total:
            raise ReproError(
                f"shard index {index} is outside the fleet 1..{total}"
            )
    profile = RunProfile.coerce(profile)
    started = time.perf_counter()

    states: dict[str, _ExperimentState] = {}
    for spec in specs:
        if spec.exp_id in states:
            raise ReproError(
                f"campaign requested {spec.exp_id} twice; each experiment "
                "plans one set of cell keys"
            )
        states[spec.exp_id] = _ExperimentState(spec, spec.cells(profile))

    campaign = CampaignExecution(jobs=jobs, shard=shard, journal=journal)

    def emit(ev: str, **fields) -> None:
        if journal is not None:
            journal.emit(ev, **fields)

    def span(kind: str, t0: float, t1: float, **fields) -> None:
        if journal is not None:
            journal.span(kind, t0, t1, **fields)

    emit(
        "campaign_start",
        t=round(started, 6),
        id=journal.campaign_id if journal is not None else "?",
        schema=JOURNAL_SCHEMA,
        pid=os.getpid(),
        jobs=jobs,
        preset=profile.preset,
        mode=profile.mode,
        sizes=list(profile.sizes) if profile.sizes else None,
        shard=list(shard) if shard is not None else None,
        strategy=shard_strategy,
        experiments=[spec.exp_id for spec in specs],
    )

    def finalize_if_done(state: _ExperimentState) -> None:
        if not state.done:
            return
        records = {
            cell.key: state.outcomes[cell.key].record for cell in state.cells
        }
        finalize_started = time.perf_counter()
        result = state.spec.finalize(profile, records)
        finalize_stopped = time.perf_counter()
        campaign.finalize_seconds += finalize_stopped - finalize_started
        span(
            "finalize",
            finalize_started,
            finalize_stopped,
            exp=state.spec.exp_id,
            worker=os.getpid(),
        )
        execution = PlanExecution(
            result=result,
            outcomes=[state.outcomes[cell.key] for cell in state.cells],
            wall_seconds=time.perf_counter() - started,
            jobs=jobs,
        )
        campaign.executions[state.spec.exp_id] = execution
        if on_result is not None:
            on_result(state.spec.exp_id, execution)

    # Satisfy what the store already holds, then flatten the rest into
    # one global pending list.  The skip-set for the *whole* campaign is
    # built up front from a single store walk (one directory traversal,
    # then only the present files are opened and hash-validated) rather
    # than probing the filesystem once per cell.  Cell keys are only
    # unique *within* an experiment (E9 and E10 both plan "g=.../n=..."
    # cells), so global bookkeeping is (exp_id, cell) pairs.
    skip_set: dict[str, dict] = {}
    if resume and store is not None:
        skip_set = store.load_campaign(
            {exp_id: state.cells for exp_id, state in states.items()},
            profile,
        )
    # Pending work items: ordinary cells ride whole (subtask=None);
    # divisible cells decompose into their subtasks, each a first-class
    # pool item, with an assembly accumulating the landed parts.  On
    # resume, parts a killed run already persisted load back from their
    # .json.part records and only the missing parts are measured.
    assemblies: "dict[tuple[str, str], _CellAssembly]" = {}
    pending: "list[tuple[_ExperimentState, Cell, Subtask | None]]" = []
    for exp_id, state in states.items():
        hits = skip_set.get(exp_id, {})
        for cell in state.cells:
            hit = hits.get(cell.key)
            if hit is not None:
                state.outcomes[cell.key] = CellOutcome(
                    cell, hit.record, hit.seconds, cached=True
                )
                emit("cell_cached", exp=exp_id, key=cell.key, mode=cell.mode)
                continue
            if cell.divisible:
                assembly = _CellAssembly(state, cell, cell.subtasks())
                assemblies[(exp_id, cell.key)] = assembly
                stored_parts = (
                    store.load_subtasks(cell, profile)
                    if resume and store is not None
                    else {}
                )
                for subtask in assembly.expected:
                    stored = stored_parts.get(subtask.part)
                    if stored is not None:
                        assembly.parts[subtask.part] = stored.record
                        assembly.part_seconds[subtask.part] = stored.seconds
                    else:
                        pending.append((state, cell, subtask))
            else:
                pending.append((state, cell, None))

    # The fleet partition: work items owned by other shards are simply
    # not measured here.  Applied after the store skip-set, so a record
    # any shard already persisted still satisfies its cell everywhere —
    # but computed over every *planned* work item, so resume state
    # cannot change which shard owns what.  Hash sharding keys subtasks
    # by their owning cell (a cell's parts stay together); the weight
    # strategy LPTs over the expanded items, splitting divisible weight
    # across shards (their part records merge back at ingest).
    if shard is not None:
        index, total = shard
        planned: "list[tuple[str, Cell | Subtask]]" = []
        for state in states.values():
            for cell in state.cells:
                if cell.divisible:
                    planned.extend(
                        (state.spec.exp_id, subtask)
                        for subtask in cell.subtasks()
                    )
                else:
                    planned.append((state.spec.exp_id, cell))
        assignment = campaign_assignment(planned, total, shard_strategy)
        owned = [
            item
            for item in pending
            if assignment[(item[0].spec.exp_id, (item[2] or item[1]).key)]
            == index - 1
        ]
        campaign.sharded_out = len(pending) - len(owned)
        pending = owned

    def finish(
        state: _ExperimentState,
        cell: Cell,
        record,
        seconds,
        fresh_seconds: "float | None" = None,
    ) -> None:
        state.outcomes[cell.key] = CellOutcome(
            cell, record, seconds, fresh_seconds=fresh_seconds
        )
        if store is not None:
            store.save(cell, profile, record, seconds)
        finalize_if_done(state)

    def complete_assembly(assembly: _CellAssembly) -> None:
        # The fold runs in the dispatching process the moment the last
        # part lands; its cost is accounted as busy (see busy_seconds).
        fold_started = time.perf_counter()
        record = fold_cell(assembly.cell, assembly.parts)
        fold_stopped = time.perf_counter()
        campaign.fold_seconds += fold_stopped - fold_started
        campaign.cells_folded += 1
        span(
            "fold",
            fold_started,
            fold_stopped,
            exp=assembly.state.spec.exp_id,
            key=assembly.cell.key,
            parts=len(assembly.expected),
            worker=os.getpid(),
        )
        finish(
            assembly.state,
            assembly.cell,
            record,
            sum(assembly.part_seconds.values()),
            fresh_seconds=assembly.fresh_seconds,
        )
        # Full record saved first, parts cleared second: a kill between
        # the two leaves spent-but-harmless part files, never a cell
        # that lost landed work.
        if store is not None:
            store.clear_subtasks(assembly.cell, profile)

    def land(
        state: _ExperimentState,
        cell: Cell,
        subtask: "Subtask | None",
        record,
        seconds,
        meta: "tuple | None" = None,
    ) -> None:
        # ``meta`` is the executor's worker-side clock: (pid, t0, t1) in
        # perf_counter time.  The span is journaled before the result is
        # folded in, so a crash during fold still leaves the measurement
        # on disk.
        if meta is not None:
            worker, t0, t1 = meta
            item = subtask if subtask is not None else cell
            fields = dict(
                exp=state.spec.exp_id,
                key=cell.key,
                mode=cell.mode,
                weight=item.weight,
                worker=worker,
                queue_wait=round(max(0.0, t0 - pool_start), 6),
            )
            if subtask is not None:
                fields["part"] = subtask.part
            span(
                "subtask" if subtask is not None else "cell", t0, t1, **fields
            )
        if subtask is None:
            finish(state, cell, record, seconds)
            return
        assembly = assemblies[(state.spec.exp_id, cell.key)]
        assembly.parts[subtask.part] = record
        assembly.part_seconds[subtask.part] = seconds
        assembly.fresh_seconds += seconds
        campaign.subtasks_run += 1
        if store is not None:
            store.save_subtask(cell, profile, subtask.part, record, seconds)
        if assembly.complete:
            complete_assembly(assembly)

    # Experiments fully satisfied from the store finalize before any
    # measurement starts (completion order: requested order), and cells
    # whose every part was already persisted fold the same way — the
    # mid-cell analogue of a store hit.
    for assembly in assemblies.values():
        if assembly.complete:
            complete_assembly(assembly)
    for state in states.values():
        finalize_if_done(state)

    # One shared LPT schedule for the whole campaign: heaviest work
    # items first regardless of owning experiment or cell; ties keep
    # flatten order (requested experiment order, then plan order, then
    # part order — stable sort).
    pending.sort(key=lambda item: -(item[2] or item[1]).weight)
    pool_start = time.perf_counter()
    emit(
        "pool_start",
        t=round(pool_start, 6),
        pending=len(pending),
        sharded_out=campaign.sharded_out,
        assemblies=len(assemblies),
    )
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_timed_run_cell, cell)
                if subtask is None
                else pool.submit(_timed_run_subtask, subtask): (
                    state,
                    cell,
                    subtask,
                )
                for state, cell, subtask in pending
            }
            remaining = set(futures)
            failure: BaseException | None = None
            while remaining:
                # Stream results as they land — store writes, folds,
                # and finalizes happen mid-campaign, not at pool
                # teardown, so a killed run keeps every finished work
                # item and a finished experiment renders while others
                # still run.
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    error = future.exception()
                    if error is not None:
                        if failure is None:
                            failure = error
                        continue
                    record, seconds, meta = future.result()
                    state, cell, subtask = futures[future]
                    land(state, cell, subtask, record, seconds, meta)
            if failure is not None:
                raise failure
    else:
        for state, cell, subtask in pending:
            record, seconds, meta = (
                _timed_run_cell(cell)
                if subtask is None
                else _timed_run_subtask(subtask)
            )
            land(state, cell, subtask, record, seconds, meta)

    # Parts measured for cells this run could not complete (their other
    # parts belong to sibling shards) are persisted above; account their
    # cost so sharded --profile lines stay honest.
    campaign.partial_fresh_seconds = sum(
        assembly.fresh_seconds
        for assembly in assemblies.values()
        if not assembly.complete
    )

    # Completion order fed on_result; the returned mapping is requested
    # order, which is what render loops and tests index by.  A sharded
    # campaign leaves other shards' cells unmeasured, so experiments
    # that could not finalize land in ``partial`` (requested order too).
    campaign.executions = {
        spec.exp_id: campaign.executions[spec.exp_id]
        for spec in specs
        if spec.exp_id in campaign.executions
    }
    campaign.partial = {
        exp_id: PartialExecution(
            outcomes=[
                state.outcomes[cell.key]
                for cell in state.cells
                if cell.key in state.outcomes
            ],
            planned=len(state.cells),
        )
        for exp_id, state in states.items()
        if not state.done
    }
    assert shard is not None or not campaign.partial, (
        "an unsharded campaign finalizes every experiment"
    )
    campaign.wall_seconds = time.perf_counter() - started
    emit(
        "campaign_stop",
        t=round(started + campaign.wall_seconds, 6),
        wall_seconds=round(campaign.wall_seconds, 6),
        cells=campaign.cell_count,
        cached=campaign.cached_count,
        subtasks=campaign.subtasks_run,
        folded=campaign.cells_folded,
        finalized=len(campaign.executions),
        partial=len(campaign.partial),
    )
    return campaign
