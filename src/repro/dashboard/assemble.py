"""Assemble dashboard views from the run store — never by simulating.

:func:`assemble` loads every plan's hash-validated records in one
:meth:`~repro.runner.store.RunStore.load_campaign` batch (a single
store walk, plus one stale scan per experiment) and folds them into
plain view objects: per-experiment results (via the spec's own
``finalize``), growth fits (via its ``curves`` hook +
:func:`repro.analysis.growth.classify_growth` — the same fits
``report --refit`` prints), per-cell provenance (config hash, store
path, wall clock), stale-file warnings, and the campaign-wide LPT
timeline (:func:`lpt_schedule`).

Experiments whose records are incomplete still get a view — ``missing``
names the absent cells — so the renderer can produce honest "no data"
pages instead of failing; nothing here ever runs a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.analysis.growth import FitResult, classify_growth
from repro.errors import ReproError
from repro.experiments import ALL_SPECS, ExperimentResult, RunProfile
from repro.experiments.base import ExperimentSpec
from repro.runner.sharding import lpt_place, shard_index
from repro.runner.store import RunStore

__all__ = [
    "CampaignView",
    "CellView",
    "CurveView",
    "ExperimentView",
    "assemble",
    "lpt_schedule",
]

ENVELOPE_SAMPLES = 24


@dataclass(frozen=True)
class CellView:
    """Provenance of one stored cell record."""

    key: str
    config_hash: str
    params: dict
    seconds: float
    weight: float
    path: str  # store-root-relative, POSIX separators
    mode: str = "sim"
    verify: str = ""  # calibration verdict ("PASS"/"FAIL"); "" otherwise
    shard: str = "1/1"  # fleet shard owning this cell under --fleet N
    # Divisible cells only: the subtask roster as (part, seconds) pairs.
    # Derived, not recorded — parts are cleared once folded, so the
    # stored wall clock is split back proportional to the planned
    # subtask weights, from the cell alone (a campaign splits every
    # divisible cell); empty when the cell is monolithic.
    parts: "tuple[tuple[str, float], ...]" = ()


@dataclass(frozen=True)
class CurveView:
    """One fitted growth curve: the measured series plus its fit."""

    name: str
    ns: list
    bits: list
    fit: FitResult

    def envelope(self, samples: int = ENVELOPE_SAMPLES) -> list:
        """The fitted ``c * f(n)`` curve, sampled geometrically."""
        positive = [n for n in self.ns if n >= 1]
        if not positive:
            return []
        lo, hi = float(min(positive)), float(max(positive))
        if hi <= lo:
            points = [lo]
        else:
            ratio = hi / lo
            points = [
                lo * ratio ** (i / (samples - 1)) for i in range(samples)
            ]
        return [
            (n, self.fit.constant * self.fit.model(max(n, 1.0)))
            for n in points
        ]


@dataclass
class ExperimentView:
    """Everything the dashboard shows for one experiment."""

    exp_id: str
    title: str
    cells: "list[CellView]" = field(default_factory=list)
    missing: "list[str]" = field(default_factory=list)
    stale: "list[str]" = field(default_factory=list)
    result: "ExperimentResult | None" = None
    curves: "list[CurveView]" = field(default_factory=list)
    error: "str | None" = None

    @property
    def complete(self) -> bool:
        return self.error is None and not self.missing and bool(self.cells)

    @property
    def planned(self) -> int:
        return len(self.cells) + len(self.missing)

    @property
    def cell_seconds(self) -> float:
        return sum(cell.seconds for cell in self.cells)

    @property
    def model_cell_count(self) -> int:
        """How many stored cells took the analytic fast path."""
        return sum(1 for cell in self.cells if cell.mode == "model")

    @property
    def calibration(self) -> "dict[str, int]":
        """Verify-cell verdict tally: ``{"PASS": ..., "FAIL": ...}``."""
        counts = {"PASS": 0, "FAIL": 0}
        for cell in self.cells:
            if cell.verify:
                counts["PASS" if cell.verify == "PASS" else "FAIL"] += 1
        return counts

    @property
    def status(self) -> str:
        """One word for the summary table: PASS/FAIL/partial/no data."""
        if self.error is not None:
            return "error"
        if not self.cells:
            return "no data"
        if self.missing:
            return "partial"
        if self.result is None:
            return "error"
        return "PASS" if self.result.passed else "FAIL"


@dataclass
class CampaignView:
    """The whole campaign as read from one store."""

    preset: str
    sizes: "tuple | None"
    store_root: str
    experiments: "list[ExperimentView]" = field(default_factory=list)
    fleet: int = 1  # fleet size the per-cell shard column is derived for

    @property
    def stored_cells(self) -> int:
        return sum(len(view.cells) for view in self.experiments)

    @property
    def cell_seconds(self) -> float:
        return sum(view.cell_seconds for view in self.experiments)

    @property
    def complete_count(self) -> int:
        return sum(1 for view in self.experiments if view.complete)

    @property
    def passed_count(self) -> int:
        return sum(
            1
            for view in self.experiments
            if view.result is not None and view.result.passed
        )


def _relative(path, root) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _assemble_experiment(
    spec: ExperimentSpec,
    cells: list,
    hits: dict,
    store: RunStore,
    profile: RunProfile,
    fleet: int = 1,
) -> ExperimentView:
    view = ExperimentView(exp_id=spec.exp_id, title=spec.title or spec.exp_id)
    records: dict = {}
    for cell in cells:
        stored = hits.get(cell.key)
        if stored is None:
            view.missing.append(cell.key)
            continue
        records[cell.key] = stored.record
        record = stored.record if isinstance(stored.record, dict) else {}
        parts: "tuple[tuple[str, float], ...]" = ()
        if cell.divisible:
            subtasks = cell.subtasks()
            total = sum(subtask.weight for subtask in subtasks)
            parts = tuple(
                (
                    subtask.part,
                    stored.seconds
                    * (subtask.weight / total if total > 0 else 1 / len(subtasks)),
                )
                for subtask in subtasks
            )
        view.cells.append(
            CellView(
                key=cell.key,
                config_hash=cell.config_hash(),
                params=dict(cell.params),
                seconds=stored.seconds,
                weight=float(cell.weight),
                path=_relative(store.path_for(cell, profile), store.root),
                mode=cell.mode,
                verify=str(record.get("verdict", "")),
                # Derived, not recorded: the fleet partition is a pure
                # function of cell identity, so "which shard owns this
                # cell under --shard i/N" is answerable from the store
                # alone — and identically for a merged fleet store and
                # an unsharded baseline (byte-identical exports).
                shard=(
                    f"{shard_index(cell.exp_id, cell.key, fleet) + 1}"
                    f"/{fleet}"
                ),
                parts=parts,
            )
        )
    view.stale = [
        _relative(path, store.root)
        for path in store.stale_paths(cells, profile)
    ]
    if view.missing or not view.cells:
        return view

    try:
        view.result = spec.finalize(profile, records)
        if spec.curves is not None:
            view.curves = [
                CurveView(name, list(ns), list(bits), classify_growth(ns, bits))
                for name, (ns, bits) in spec.growth_curves(
                    profile, records
                ).items()
            ]
    except ReproError as error:
        view.error = str(error)
    return view


def assemble(
    store: RunStore,
    profile: "bool | RunProfile" = False,
    specs: "Sequence[ExperimentSpec] | None" = None,
    fleet: int = 1,
) -> CampaignView:
    """Build every experiment's view from the store.

    Record loads go through one
    :meth:`~repro.runner.store.RunStore.load_campaign` batch (the same
    one-walk skip-set the campaign's ``--resume`` uses); the only other
    store reads are the per-experiment stale scans.  ``fleet`` sets the
    fleet size the per-cell shard provenance column is derived for
    (``--shard i/N`` partition membership; 1 = single machine).
    """
    profile = RunProfile.coerce(profile)
    if fleet < 1:
        raise ReproError(f"fleet size must be positive, got {fleet}")
    if specs is None:
        specs = list(ALL_SPECS.values())
    plans: dict = {}
    errors: dict = {}
    for spec in specs:
        try:
            plans[spec.exp_id] = spec.cells(profile)
        except ReproError as error:
            # A plan can be unbuildable under this profile (e.g. a
            # --sizes override E8 cannot realize); the page says so
            # instead of dying.
            errors[spec.exp_id] = str(error)
    loaded = store.load_campaign(plans, profile)
    view = CampaignView(
        preset=profile.preset,
        sizes=profile.sizes,
        store_root=str(store.root),
        fleet=fleet,
    )
    for spec in specs:
        if spec.exp_id in errors:
            broken = ExperimentView(
                exp_id=spec.exp_id, title=spec.title or spec.exp_id
            )
            broken.error = errors[spec.exp_id]
            view.experiments.append(broken)
        else:
            view.experiments.append(
                _assemble_experiment(
                    spec,
                    plans[spec.exp_id],
                    loaded[spec.exp_id],
                    store,
                    profile,
                    fleet=fleet,
                )
            )
    return view


def lpt_schedule(
    campaign: CampaignView, jobs: int
) -> "tuple[list[list], float]":
    """Replay the campaign's LPT schedule from stored cell seconds.

    Every stored work item, heaviest first (ties broken by experiment
    then plan order — deterministic), lands on the earliest-available
    of ``jobs`` workers.  Divisible cells appear *part by part*: each
    ``(part, seconds)`` entry of :attr:`CellView.parts` schedules as
    its own item keyed ``<cell>#part=<part>`` — the timeline shows
    divided cells exactly the way the executor's pool ran them, with
    the owning cell readable off every lane label.  Returns ``(lanes,
    makespan)`` where each lane is a list of ``(exp_index, cell,
    start)`` tuples in start order; this is the schedule the executor's
    heaviest-first policy approximates, rendered from what the cells
    actually cost.
    """
    jobs = max(1, jobs)
    weighted = []
    for exp_index, experiment in enumerate(campaign.experiments):
        for cell_index, cell in enumerate(experiment.cells):
            if cell.parts:
                for part_index, (part, seconds) in enumerate(cell.parts):
                    weighted.append(
                        (
                            -seconds,
                            exp_index,
                            cell_index,
                            part_index,
                            replace(
                                cell,
                                key=f"{cell.key}#part={part}",
                                seconds=seconds,
                                parts=(),
                            ),
                        )
                    )
            else:
                weighted.append(
                    (-cell.seconds, exp_index, cell_index, -1, cell)
                )
    weighted.sort(key=lambda item: item[:4])
    placed, makespan = lpt_place([item[4].seconds for item in weighted], jobs)
    lanes: "list[list]" = [[] for _ in range(jobs)]
    for (_neg, exp_index, _c, _p, cell), (lane, start) in zip(weighted, placed):
        lanes[lane].append((exp_index, cell, start))
    return lanes, makespan
