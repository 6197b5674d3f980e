"""Command-line entry point: regenerate the EXPERIMENTS.md tables.

Usage::

    ring-repro all                  # every experiment, full sweeps
    ring-repro E7 E8                # selected experiments
    ring-repro all --quick          # reduced sweeps (what the tests run)
    ring-repro all --preset quick   # same, spelled as a preset
    ring-repro E8 --preset long     # n >= 10^4 metrics-mode sweeps
    ring-repro all --preset long --jobs 4  # one shared 4-worker cell pool
    ring-repro E8 --preset long --resume   # skip cells already in runs/
    ring-repro report E8 --preset long     # re-render from runs/, no sims
    ring-repro report --all --refit        # campaign report + growth refits
    ring-repro report --all --prune-stale  # delete unloadable stored files
    ring-repro report --all --prune-stale --dry-run  # list only, keep files
    ring-repro dashboard                   # static HTML+JSON/CSV from runs/
    ring-repro dashboard --preset long --out site --open
    ring-repro E1 --sizes 64,256,1024   # explicit ring sizes
    ring-repro E9 E10 --preset long --mode model   # analytic path to n=2^20
    ring-repro E9 E10 --preset long --mode verify  # calibrate vs simulator
    ring-repro all --profile        # per-experiment cost + pool utilization
    ring-repro all --quick --shard 2/3 --store shard-2  # fleet leg 2 of 3
    ring-repro ingest shard-1 shard-2 shard-3 --into runs  # merge the fleet
    ring-repro ingest shard-* --into fleet --strip-seconds # byte-diffable
    ring-repro trace                # replay the latest campaign journal
    ring-repro trace --campaign ID  # ...or a specific one
    ring-repro ledger seed          # fold BENCH_*.json into the ledger
    ring-repro ledger append FILE --run-id ID  # record one bench run
    ring-repro ledger check         # gate: newest run vs drift bands
    python -m repro.cli E9          # equivalent module form

The first token picks the command (case-insensitive); any other first
token starts an experiment run.  Each command has its own parser and
flags — ``ring-repro <command> --help`` lists them — so a flag given to
a command that does not read it is a usage error (exit 2).

Presets select a sweep variant per experiment: ``quick`` (unit-test
sizes), ``full`` (the EXPERIMENTS.md tables, default), and ``long`` —
the counter-only experiments (E1, E7-E11) at ring sizes up to ~1.6*10^4,
which stay cheap because those sweeps stream ``trace="metrics"`` (see
PERFORMANCE.md); experiments without a dedicated long sweep fall back to
their full one.  ``--sizes N,N,...`` overrides the ring sizes outright,
for ad-hoc scaling runs.

``--mode`` adds the analytic-model axis (PERFORMANCE.md layer 7) for
experiments whose bit counts are position-determined (E9/E10): ``model``
evaluates the closed-form accounting of :mod:`repro.analysis.models`
instead of simulating — O(log n) per cell, and the long sweeps extend
past the simulable ceiling to n = 2^20 — while ``verify`` runs *both* at
simulable sizes and persists a bit-for-bit calibration verdict per cell
(the simulator stays the oracle; ``--profile`` and the report/dashboard
surface the PASS/FAIL tally).  Mode is part of each cell's identity:
model-backed and simulated records of the same (experiment, size) are
distinct store entries, so neither ever invalidates the other.

Execution is a *campaign*: every requested experiment's cells are
flattened into one list and scheduled heaviest-first on a single shared
pool — ``--jobs N`` means N workers for the whole campaign.  Tables
print in request order and are byte-identical to serial runs (every
cell's RNG seed derives from its identity).  Every measured cell
persists as a JSON record under ``runs/`` (``--store DIR`` relocates,
``--no-store`` disables); ``--resume`` reuses stored records whose
config hash still matches.

Cells that declare a ``split`` hook are *divisible*: their subtasks
are pool work items folded back into the exact record the monolithic
path produces.  Landed parts persist as ``.json.part`` records, so
``--resume`` restarts mid-cell.  A campaign splits every divisible
cell; the undivided path (``run_cell``) stays the oracle in the tests.

``report`` renders entirely from the store and runs no simulations:
``--all`` appends an aggregated campaign summary over every experiment,
``--refit`` regenerates each experiment's growth-law fits from the
stored records (:func:`repro.analysis.growth.refit_from_store`), and
stale store files — ones no current cell can load (edited sweeps,
changed measurement code) — are warned about and deleted by
``--prune-stale`` after listing (``--dry-run`` lists and sizes them but
deletes nothing; records belonging to other ``--sizes`` overrides are
never stale and never touched).

``--shard i/N`` turns one run into fleet leg ``i`` of ``N``: the
campaign's cell list is partitioned deterministically
(:mod:`repro.runner.sharding`), so N machines running the same command
with ``--shard 1/N .. N/N`` measure disjoint, covering subsets into
their own stores.  ``--shard-strategy`` picks the partition: ``hash``
(default, a stable identity hash) or ``weight`` (LPT over planned cell
weights; every leg must then request the same experiments, preset, and
mode).  Experiments not finalized locally stay partial until ``ingest``.

``ingest SRC... --into DIR`` merges shard stores into one fleet store
(:mod:`repro.runner.ingest`): identical records are deduped, same-key
records with differing hashes are stale-pruned with a listed report,
and corrupt source records are skipped with a warning.
``--strip-seconds`` zeroes per-record wall clocks, so a merged fleet
store byte-diffs against an unsharded baseline.

``dashboard`` renders the store as a static site (``repro.dashboard``):
``index.html`` plus one page per experiment with SVG growth curves,
fitted Θ-envelopes, per-cell wall-clock bars, an LPT campaign timeline,
config-hash provenance and stale warnings, and machine exports
(``campaign.json``, per-experiment ``cells.csv``,
``bench-trajectory.json``).  Like ``report`` it never simulates; unlike
``report`` an incomplete or empty store is not an error — pages say
what is missing and the build exits 0.  Output is byte-deterministic
for a fixed store (CI diffs two renders).

``--profile`` prints per-experiment cost as the *sum of per-cell wall
clocks* (meaningful under any ``--jobs``), sorted heaviest first, plus
a campaign utilization line (busy worker-seconds / wall * jobs).  Exit
status is non-zero when any executed experiment's claim check fails.

Every campaign also journals its spans — cells, subtasks, folds,
finalizes, store writes — to an append-only JSONL sidecar under
``runs/_telemetry`` (:mod:`repro.obs.journal`; ``REPRO_TELEMETRY_DIR``
relocates it, ``REPRO_NO_TELEMETRY=1`` disables it, and stores, tables,
and dashboards are byte-identical either way).  ``trace`` replays a
journal into a critical-path report with per-worker idle attribution
and declared-weight calibration; ``ledger`` maintains
``benchmarks/LEDGER.jsonl`` — the append-only perf-regression ledger —
and ``ledger check`` exits nonzero when the newest bench run drifts
out of its robust trailing bands (the CI gate).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.growth import classify_growth
from repro.analysis.tables import format_table
from repro.errors import ReproError
from repro.experiments import (
    ALL_EXPERIMENTS,
    FIXED_SWEEP_EXPERIMENTS,
    RunProfile,
    get_spec,
)
from repro.runner import (
    CampaignExecution,
    PlanExecution,
    RunStore,
    execute_campaign,
    report_from_store,
)
from repro.runner.store import DEFAULT_STORE_ROOT

__all__ = [
    "COMMANDS",
    "build_profile",
    "command_parser",
    "main",
    "parse_command",
    "parse_sizes",
]


def parse_sizes(spec: str) -> tuple[int, ...]:
    """Parse a ``--sizes`` value: comma-separated positive ring sizes."""
    items = [piece.strip() for piece in spec.split(",")]
    if not any(items):
        raise ReproError("--sizes got an empty list")
    sizes = []
    for item in items:
        if not item:
            continue
        try:
            value = int(item)
        except ValueError:
            raise ReproError(
                f"--sizes expects comma-separated integers, got {item!r}"
            ) from None
        if value < 1:
            raise ReproError(f"--sizes needs positive ring sizes, got {value}")
        sizes.append(value)
    return tuple(sizes)


def build_profile(
    preset: str | None, sizes: str | None, quick: bool, mode: str = "sim"
) -> RunProfile:
    """Combine the sweep flags into one :class:`RunProfile`.

    ``--quick`` is the historical alias for ``--preset quick``; combining
    it with a *different* preset is a contradiction and an error.
    ``mode`` is the ``--mode`` axis (sim | model | verify) — validated by
    :class:`RunProfile` itself.
    """
    if quick and preset not in (None, "quick"):
        raise ReproError(
            f"--quick conflicts with --preset {preset}; pick one"
        )
    resolved = "quick" if quick else (preset or "full")
    return RunProfile(
        preset=resolved,
        sizes=parse_sizes(sizes) if sizes else None,
        mode=mode,
    )


def _profile_line(exp_id: str, execution: PlanExecution) -> str:
    """One experiment's ``--profile`` report: per-cell cost, not wall."""
    cached = (
        f", {execution.cached_count} from store"
        if execution.cached_count
        else ""
    )
    return (
        f"[{exp_id} took {execution.cell_seconds:.2f}s of cell time across "
        f"{len(execution.outcomes)} cells (wall {execution.wall_seconds:.2f}s, "
        f"jobs={execution.jobs}{cached})]"
    )


def _campaign_line(campaign: CampaignExecution) -> str:
    """The campaign-level ``--profile`` line: shared-pool utilization.

    Busy worker-seconds include measurement, fold, and finalize time —
    a worker reassembling a divided cell is as busy as one simulating —
    so the utilization ratio stays honest when campaigns split cells.
    """
    divided = (
        f", {campaign.subtasks_run} subtask(s) folded into "
        f"{campaign.cells_folded} cell(s)"
        if campaign.subtasks_run or campaign.cells_folded
        else ""
    )
    return (
        f"[campaign: {len(campaign.executions)} experiment(s), "
        f"{campaign.cell_count} cells ({campaign.cached_count} from store"
        f"{divided}), "
        f"busy {campaign.busy_seconds:.2f} worker-seconds over "
        f"{campaign.wall_seconds:.2f}s wall x {campaign.jobs} jobs => "
        f"utilization {campaign.utilization:.0%}]"
    )


def _calibration_line(campaign: CampaignExecution) -> "str | None":
    """The ``--profile`` calibration line for mode-routed campaigns."""
    counts = campaign.calibration
    model_cells = campaign.model_cell_count
    if not model_cells and not (counts["PASS"] or counts["FAIL"]):
        return None
    return (
        f"[calibration: {model_cells} model-backed cell(s); "
        f"{counts['PASS']} verify PASS, {counts['FAIL']} verify FAIL]"
    )


def _idle_line(campaign: CampaignExecution) -> "str | None":
    """The ``--profile`` idle-attribution line, from the span journal.

    Shares :func:`repro.obs.report.idle_summary` with ``ring-repro
    trace``, so the two reports agree by construction.  None when
    telemetry is off (``REPRO_NO_TELEMETRY=1``) or nothing was measured.
    """
    if campaign.journal is None:
        return None
    from repro.obs.report import idle_summary, load_trace

    summary = idle_summary(load_trace(campaign.journal.events))
    if summary is None:
        return None
    shares = summary["shares"]
    return (
        f"[idle: {summary['idle_s']:.2f} worker-second(s) across "
        f"{summary['lanes']} lane(s): "
        f"{shares['straggler']:.0%} straggler, "
        f"{shares['queue-empty']:.0%} queue-empty, "
        f"{shares['fold-barrier']:.0%} fold-barrier"
        " — 'ring-repro trace' breaks this down per worker]"
    )


def _print_profile(campaign: CampaignExecution) -> None:
    """Per-experiment cell time, heaviest first, then pool utilization."""
    ordered = sorted(
        campaign.executions.items(), key=lambda item: -item[1].cell_seconds
    )
    for exp_id, execution in ordered:
        print(_profile_line(exp_id, execution))
    print(_campaign_line(campaign))
    calibration = _calibration_line(campaign)
    if calibration is not None:
        print(calibration)
    idle = _idle_line(campaign)
    if idle is not None:
        print(idle)


def _warn_weights(campaign: CampaignExecution) -> None:
    """Flag cells whose declared LPT weight belies their measured cost.

    Computed from the campaign's own outcomes (works with telemetry
    off), printed to stderr so byte-diffed stdout never sees it.  The
    class of bug this catches: a divisible witness cell declaring
    weight 24 for a ~15 s BFS, which LPT then scheduled last.
    """
    from repro.obs.report import WEIGHT_RATIO_CAP, weight_calibration

    entries = [
        (
            outcome.cell.exp_id,
            outcome.cell.key,
            outcome.cell.weight,
            outcome.seconds,
        )
        for outcome in campaign._outcomes()
        if not outcome.cached
    ]
    flagged = [
        row for row in weight_calibration(entries) if row["flagged"]
    ]
    if not flagged:
        return
    print(
        f"[weight-calibration: {len(flagged)} cell(s) whose declared "
        f"Cell.weight is >{WEIGHT_RATIO_CAP:g}x off their experiment's "
        "measured seconds-per-weight scale — LPT schedules them "
        "dishonestly:",
        file=sys.stderr,
    )
    for row in flagged:
        print(
            f"  {row['exp']}/{row['key']}: weight {row['weight']:g} "
            f"predicts {row['predicted_s']:.2f}s, measured "
            f"{row['seconds']:.2f}s "
            f"({max(row['ratio'], 1 / row['ratio']):.1f}x off)",
            file=sys.stderr,
        )
    print("  fix the weight hints in the experiment spec]", file=sys.stderr)


def _stale_bytes(paths) -> int:
    """Total on-disk size of the listed files (vanished ones count 0)."""
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return total


def _warn_stale(
    store: RunStore,
    spec,
    cells: list,
    profile: RunProfile,
    prune: bool,
    dry_run: bool,
) -> None:
    """Report-mode hygiene: list (and optionally delete) stale files.

    Only files the current plan's ``cells`` supersede are ever
    considered — records belonging to a different ``--sizes`` override
    share the preset directory but are not stale and are never touched.
    """
    stale = store.stale_paths(cells, profile)
    if not stale:
        return
    print(
        f"[{spec.exp_id} has {len(stale)} stale store file(s) under "
        f"{store.root} (preset {profile.preset}) superseded by the "
        "current measurement code — nothing can load them again:",
        file=sys.stderr,
    )
    for path in stale:
        print(f"  {path}", file=sys.stderr)
    if prune and dry_run:
        print(
            f"  dry run: would reclaim {_stale_bytes(stale)} bytes; "
            "nothing deleted]",
            file=sys.stderr,
        )
    elif prune:
        reclaimed = _stale_bytes(stale)
        pruned = store.prune_stale(cells, profile)
        print(
            f"  pruned {len(pruned)} file(s), reclaimed {reclaimed} bytes]",
            file=sys.stderr,
        )
    else:
        print("  rerun with --prune-stale to delete them]", file=sys.stderr)


def _campaign_summary(
    rendered: "list[tuple[str, PlanExecution]]", profile: RunProfile
) -> str:
    """The ``report --all`` aggregate: one row per stored experiment."""
    rows = [
        {
            "experiment": exp_id,
            "cells": len(execution.outcomes),
            "cell seconds": round(execution.cell_seconds, 2),
            "passed": execution.result.passed,
        }
        for exp_id, execution in rendered
    ]
    passed = sum(1 for _, execution in rendered if execution.result.passed)
    total_cells = sum(len(execution.outcomes) for _, execution in rendered)
    total_seconds = sum(execution.cell_seconds for _, execution in rendered)
    parts = [
        f"== campaign report: preset {profile.preset}, from the run store ==",
        "",
        format_table(rows, ["experiment", "cells", "cell seconds", "passed"]),
        "",
        f"{passed}/{len(rendered)} experiment(s) passed; {total_cells} "
        f"stored cells, {total_seconds:.2f}s of stored cell time",
    ]
    return "\n".join(parts)


def _run_report(args, profile: RunProfile, store: RunStore, exp_ids) -> int:
    """The ``report`` command: render everything from the store."""
    failures = 0
    rendered: list[tuple[str, PlanExecution]] = []
    for exp_id in exp_ids:
        spec = get_spec(exp_id)
        # One plan serves the stale scan and the render: each cell's
        # config hash is then computed once.
        cells = spec.cells(profile)
        _warn_stale(store, spec, cells, profile, args.prune_stale, args.dry_run)
        try:
            execution = report_from_store(spec, profile, store, cells)
        except ReproError as error:
            print(str(error), file=sys.stderr)
            failures += 1
            continue
        print(execution.result.render())
        if args.refit:
            if spec.curves is None:
                print(
                    f"[{exp_id} fits no growth curves; --refit skipped]",
                    file=sys.stderr,
                )
            else:
                # The refit_from_store body over records report already
                # loaded — same store-only fits, no second disk pass.
                records = {
                    outcome.cell.key: outcome.record
                    for outcome in execution.outcomes
                }
                curve_map = spec.growth_curves(profile, records)
                for name, (ns, bits) in curve_map.items():
                    print(
                        f"[refit {exp_id}/{name}: {classify_growth(ns, bits)}]"
                    )
        print()
        rendered.append((exp_id, execution))
        if not execution.result.passed:
            failures += 1
    if args.all:
        print(_campaign_summary(rendered, profile))
        print()
    if args.profile:
        for exp_id, execution in sorted(
            rendered, key=lambda item: -item[1].cell_seconds
        ):
            print(_profile_line(exp_id, execution))
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(rendered)} experiment(s) passed")
    return 0


def _run_dashboard(args, profile: RunProfile, store: RunStore) -> int:
    """The ``dashboard`` command: render the static site + exports.

    Always exits 0 on a successful build — an empty or partial store
    renders honest "no data" pages rather than failing, because the
    dashboard's job is to show what the store holds, not to gate on it.
    """
    # Imported here so plain experiment runs never pay the import.
    from repro.dashboard import build_dashboard

    written = build_dashboard(
        store,
        profile,
        out_dir=args.out,
        timeline_jobs=args.jobs,
        bench_dir=args.bench_dir,
        fleet=args.fleet,
    )
    index = next(path for path in written if path.name == "index.html")
    print(
        f"dashboard: wrote {len(written)} file(s) to {args.out} "
        f"(preset {profile.preset}, store {store.root}, no simulation)"
    )
    print(f"open {index}")
    if args.open:
        import webbrowser

        webbrowser.open(index.resolve().as_uri())
    return 0


def _run_ingest(args) -> int:
    """The ``ingest`` command: merge shard stores into one fleet store.

    Conflict details go to stderr (they are diagnostics, like stale
    warnings); the one-line outcome summary goes to stdout.
    """
    from repro.runner.ingest import ingest_stores

    report = ingest_stores(
        args.sources, args.into, strip_seconds=args.strip_seconds
    )
    for conflict in report.pruned:
        print(f"[ingest stale-prune: {conflict.describe()}]", file=sys.stderr)
    if report.skipped:
        print(
            f"[ingest skipped {len(report.skipped)} corrupt source "
            "record(s); see warnings above]",
            file=sys.stderr,
        )
    print(report.summary())
    return 0


def _run_trace(args) -> int:
    """The ``trace`` command: replay a span journal into a report.

    Renders the newest campaign journal under the telemetry root (or
    the one ``--campaign ID`` names): critical path, per-worker
    utilization with idle attribution, weight calibration, rollups.
    Reads only the journal sidecar — never the run store.
    """
    from repro.obs.journal import (
        read_journal,
        resolve_journal,
        telemetry_root,
    )
    from repro.obs.report import load_trace, render_trace

    path = resolve_journal(args.campaign)
    if path is None:
        where = (
            "no campaign journals"
            if args.campaign == "latest"
            else f"no journal {args.campaign!r}"
        )
        print(
            f"{where} under {telemetry_root()} — run a campaign first "
            "(journals are off under REPRO_NO_TELEMETRY=1)",
            file=sys.stderr,
        )
        return 1
    events, dropped = read_journal(path)
    trace = load_trace(events, dropped)
    print(render_trace(trace))
    return 0


def _run_ledger(args) -> int:
    """The ``ledger`` command: seed / append / check the perf ledger.

    ``seed`` folds every ``BENCH_*.json`` under ``--bench-dir`` into the
    ledger (idempotent); ``append FILE`` records one fresh bench run;
    ``check`` validates the newest run against its trailing drift bands
    and exits nonzero on violation (the CI gate).
    """
    import json as json_mod
    from pathlib import Path

    from repro.obs.ledger import (
        append_run,
        check_ledger,
        normalize_bench_file,
        seed_ledger,
    )

    path = args.ledger
    try:
        if args.action == "seed":
            added, skipped = seed_ledger(args.bench_dir, path)
            print(
                f"ledger seed: {added} entr{'y' if added == 1 else 'ies'} "
                f"added to {path} from {args.bench_dir} "
                f"({skipped} file(s) skipped: already seeded or empty)"
            )
            return 0
        if args.action == "append":
            bench_path = Path(args.file)
            records = normalize_bench_file(bench_path)
            if not records:
                raise ReproError(
                    f"{bench_path} holds no numeric measurements to append"
                )
            run = args.run_id if args.run_id is not None else bench_path.name
            recorded = ""
            try:
                data = json_mod.loads(bench_path.read_text(encoding="utf-8"))
                if isinstance(data, dict):
                    stamp = data.get("date") or data.get("snapshot")
                    recorded = stamp if isinstance(stamp, str) else ""
            except (OSError, ValueError):
                pass
            count = append_run(path, run, records, recorded=recorded)
            print(
                f"ledger append: run {run!r} recorded {count} metric(s) "
                f"into {path}"
            )
            return 0
        check = check_ledger(path, rel_floor=args.rel_floor)
        print(check.render())
        return 0 if check.passed else 1
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2


def _shard_summary(campaign: CampaignExecution, store: RunStore) -> str:
    """The sharded-run outcome: what this leg measured, what remains.

    ``sharded_out`` counts *work items* (whole cells, or a divided
    cell's subtasks under the weight strategy), so the denominator is
    the campaign's work-item total — a divided cell some other shard
    partially owns still shows up in it part by part.
    """
    index, total = campaign.shard
    measured = campaign.cell_count - campaign.cached_count
    campaign_cells = campaign.cell_count + campaign.sharded_out
    return (
        f"[shard {index}/{total}: measured {measured} of {campaign_cells} "
        f"campaign work item(s) into {store.root} ({campaign.cached_count} "
        f"from store, {campaign.sharded_out} owned by other shards); "
        f"{len(campaign.executions)} experiment(s) finalized, "
        f"{len(campaign.partial)} partial — merge the fleet with "
        f"'ring-repro ingest SHARD-STORE... --into {DEFAULT_STORE_ROOT}' "
        "and render with 'ring-repro report --all']"
    )


def _run_campaign(args, profile: RunProfile) -> int:
    """An experiment run: one campaign over every requested experiment."""
    exp_ids = _expand_ids(args.experiments)
    if profile.sizes is not None:
        for exp_id in exp_ids:
            if exp_id in FIXED_SWEEP_EXPERIMENTS:
                print(
                    f"[{exp_id} has no ring-size sweep; --sizes does not "
                    "apply, running its standard workload]",
                    file=sys.stderr,
                )

    # One campaign for the whole request: a single shared cell pool, each
    # experiment rendered the moment its last cell lands — in request
    # order, so the output is byte-identical to the sequential path.
    specs = [get_spec(exp_id) for exp_id in exp_ids]
    order = [spec.exp_id for spec in specs]
    ready: dict[str, PlanExecution] = {}
    next_to_print = 0

    def on_result(exp_id: str, execution: PlanExecution) -> None:
        nonlocal next_to_print
        ready[exp_id] = execution
        while next_to_print < len(order) and order[next_to_print] in ready:
            print(ready[order[next_to_print]].result.render())
            print()
            next_to_print += 1

    # A sharded leg renders at the end (finalized experiments only, in
    # request order): most experiments stay partial, so the streaming
    # request-order gate would never open past the first partial one.
    store = None if args.no_store else RunStore(args.store)
    campaign = execute_campaign(
        specs,
        profile,
        jobs=args.jobs,
        store=store,
        resume=args.resume,
        on_result=None if args.shard is not None else on_result,
        shard=args.shard,
        shard_strategy=args.shard_strategy,
    )
    if args.shard is None:
        assert next_to_print == len(order), (
            "campaign finalized every experiment"
        )
    else:
        for exp_id in order:
            if exp_id in campaign.executions:
                print(campaign.executions[exp_id].result.render())
                print()
    _warn_weights(campaign)
    if args.profile:
        _print_profile(campaign)
    failures = sum(
        1
        for execution in campaign.executions.values()
        if not execution.result.passed
    )
    if args.shard is not None:
        print(_shard_summary(campaign, store))
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
        return 1
    if args.shard is None:
        print(f"all {len(exp_ids)} experiment(s) passed")
    return 0


def _expand_ids(items: "Sequence[str]") -> "list[str]":
    """Experiment ids from the command line: 'all' expands, repeats fold."""
    if any(item.lower() == "all" for item in items):
        return list(ALL_EXPERIMENTS)
    # A campaign plans each experiment exactly once; repeating an id on
    # the command line would only repeat the identical table.
    return list(dict.fromkeys(item.upper() for item in items))


def _positive(what: str):
    """An argparse ``type``: a positive integer, called ``what`` in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"needs a positive {what}, got {text}"
            )
        return value

    return parse


def _shard(text: str) -> "tuple[int, int]":
    """The argparse ``type`` of ``--shard I/N``."""
    from repro.runner.sharding import parse_shard

    try:
        return parse_shard(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


COMMANDS = ("report", "dashboard", "ingest", "trace", "ledger")

_DESCRIPTIONS = {
    "run": "Reproduce Mansour & Zaks (PODC 1986): bit complexity of "
    "distributed computations in a ring with a leader.  Runs the given "
    "experiments as one campaign.  Other commands: report, dashboard, "
    "ingest, trace, ledger — see 'ring-repro <command> --help'.",
    "report": "Re-render experiment tables from stored cell records; "
    "runs no simulation.",
    "dashboard": "Render the run store as a static HTML+JSON/CSV site; "
    "runs no simulation.",
    "ingest": "Merge shard stores into one fleet store.",
    "trace": "Replay a campaign's span journal into a critical-path report.",
    "ledger": "Maintain the perf-regression ledger.",
}


def command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command: ``run`` is an experiment run.

    Each parser declares only the flags its command reads, so argparse
    itself rejects a flag given to the wrong command.
    """
    parser = argparse.ArgumentParser(
        prog="ring-repro" if command == "run" else f"ring-repro {command}",
        description=_DESCRIPTIONS[command],
    )
    add = parser.add_argument
    if command == "run":
        add("experiments", nargs="+", metavar="ID",
            help="experiment ids (E1..E12, case-insensitive) or 'all'")
    elif command == "report":
        add("experiments", nargs="*", metavar="ID",
            help="experiment ids (E1..E12) or 'all'")
    elif command == "ingest":
        add("sources", nargs="+", metavar="SRC",
            help="shard store directories to merge")
        add("--into", metavar="DIR", default=DEFAULT_STORE_ROOT,
            help=f"destination fleet store (default: {DEFAULT_STORE_ROOT}/)")
        add("--strip-seconds", action="store_true",
            help="zero each merged record's wall clock so two stores of "
            "the same campaign (e.g. a merged fleet and an unsharded "
            "baseline) become byte-identical")
        return parser
    elif command == "trace":
        add("--campaign", metavar="ID", default="latest",
            help="which journal to replay — a campaign id (or .jsonl "
            "filename) under the telemetry root, or 'latest' (default)")
        return parser
    elif command == "ledger":
        _ledger_actions(parser)
        return parser

    add("--quick", action="store_true",
        help="use reduced sweeps (alias for --preset quick)")
    add("--preset", choices=["quick", "full", "long"],
        help="sweep preset: quick (test sizes), full (default), "
        "long (n >= 10^4 metrics-mode sweeps for E1, E7-E11)")
    add("--mode", choices=["sim", "model", "verify"], default="sim",
        help="how cells with an analytic model obtain records: sim "
        "(simulate everything; default), model (closed-form bit "
        "accounting only — long sweeps extend past the simulable "
        "ceiling), verify (run both at simulable sizes and record a "
        "bit-for-bit calibration verdict); experiments without a model "
        "simulate regardless")
    add("--sizes", metavar="N,N,...",
        help="override every size sweep's ring sizes (comma-separated; "
        "growth fits need >= 3 sizes, and size-constrained experiments "
        "such as E8 — multiples of 3 — fail on incompatible values)")
    add("--store", metavar="DIR", default=DEFAULT_STORE_ROOT,
        help=f"run-store directory for cell records "
        f"(default: {DEFAULT_STORE_ROOT}/)")
    if command in ("run", "report"):
        add("--profile", action="store_true",
            help="print per-experiment cell time (heaviest first); a run "
            "adds the campaign's shared-pool utilization line")
    if command == "run":
        add("--jobs", type=_positive("worker count"), default=1,
            metavar="N",
            help="measure cells on N worker processes shared by the whole "
            "campaign (default 1: in-process); tables are byte-identical "
            "to --jobs 1")
        persist = parser.add_mutually_exclusive_group()
        persist.add_argument("--resume", action="store_true",
            help="reuse stored cell records whose config hash still "
            "matches; only the missing cells are measured")
        persist.add_argument("--no-store", action="store_true",
            help="do not persist cell records")
        add("--shard", metavar="I/N", type=_shard,
            help="run fleet leg I of N: measure only this shard of the "
            "campaign's cell list into its own store, for a later "
            "'ingest' merge; 1-based, so shards are 1/N .. N/N")
        add("--shard-strategy", choices=["hash", "weight"], default="hash",
            help="with --shard: how the fleet partition assigns cells — "
            "hash (default: stable identity hash) or weight "
            "(deterministic LPT over planned cell weights; every leg "
            "must request the same experiments, preset, and mode)")
    elif command == "report":
        add("--all", action="store_true",
            help="render every experiment and append an aggregated "
            "campaign summary table")
        add("--refit", action="store_true",
            help="regenerate growth-law fits from the stored records "
            "and print them per curve")
        add("--prune-stale", action="store_true",
            help="delete stale store files (ones no current cell loads) "
            "after listing them and print the bytes reclaimed")
        add("--dry-run", action="store_true",
            help="with --prune-stale: list stale files and the bytes "
            "they hold, delete nothing")
    else:
        add("--jobs", type=_positive("worker count"), default=1,
            metavar="N", help="the timeline's replayed worker count")
        add("--out", metavar="DIR", default="dashboard",
            help="output directory for the rendered site "
            "(default: dashboard/)")
        add("--open", action="store_true",
            help="open the rendered index.html in a browser")
        add("--bench-dir", metavar="DIR", default="benchmarks",
            help="directory scanned for BENCH_*.json records "
            "(default: benchmarks/)")
        add("--fleet", type=_positive("fleet size"), default=1,
            metavar="N",
            help="annotate each cell's provenance with the shard (i/N) "
            "that owns it in an N-machine fleet (default: 1)")
    return parser


def _ledger_actions(parser: argparse.ArgumentParser) -> None:
    """``ledger seed | append FILE | check`` as sub-parsers."""
    from repro.obs.ledger import DEFAULT_LEDGER, DEFAULT_REL_FLOOR

    actions = parser.add_subparsers(dest="action", required=True)
    seed = actions.add_parser(
        "seed", help="fold every BENCH_*.json into the ledger (idempotent)"
    )
    seed.add_argument("--bench-dir", metavar="DIR", default="benchmarks",
        help="directory scanned for BENCH_*.json records "
        "(default: benchmarks/)")
    append = actions.add_parser("append", help="record one bench run")
    append.add_argument("file", metavar="FILE", help="the bench JSON file")
    append.add_argument("--run-id", metavar="ID",
        help="the run id to record under (default: the file's name)")
    check = actions.add_parser(
        "check", help="gate: the newest run against its drift bands"
    )
    check.add_argument("--rel-floor", type=float, default=DEFAULT_REL_FLOOR,
        metavar="F",
        help="minimum band halfwidth as a fraction of the median, keeping "
        "deterministic metrics (MAD 0) from failing every change "
        f"(default: {DEFAULT_REL_FLOOR})")
    for action in (seed, append, check):
        action.add_argument("--ledger", metavar="PATH",
            default=str(DEFAULT_LEDGER),
            help=f"the ledger file (default: {DEFAULT_LEDGER})")


def parse_command(argv: "Sequence[str]") -> "tuple[str, argparse.Namespace]":
    """Pick the command by the first token and parse the rest.

    Any first token other than a command name is an experiment run
    (command ``run``).  The checks argparse cannot express are made
    here too, so a parsed command is a valid one; commands that sweep
    carry their :class:`RunProfile` as ``run_profile``.
    """
    argv = list(argv)
    command = argv[0].lower() if argv else "run"
    if command in COMMANDS:
        argv = argv[1:]
    else:
        command = "run"
    parser = command_parser(command)
    args = parser.parse_args(argv)
    if command == "report":
        if args.dry_run and not args.prune_stale:
            parser.error("--dry-run only applies with --prune-stale")
        if not args.experiments and not args.all:
            parser.error("report needs experiment ids (E1..E12), 'all', or --all")
    if command == "run":
        if args.shard is None and args.shard_strategy != "hash":
            parser.error("--shard-strategy only applies with --shard i/N")
        if args.shard is not None and args.no_store:
            parser.error(
                "--shard fills a run store for a later ingest merge; "
                "drop --no-store"
            )
    if command in ("run", "report", "dashboard"):
        try:
            args.run_profile = build_profile(
                args.preset, args.sizes, args.quick, args.mode
            )
        except ReproError as error:
            parser.error(str(error))
    return command, args


def main(argv: Sequence[str] | None = None) -> int:
    """Run the requested command; return a process exit code."""
    command, args = parse_command(sys.argv[1:] if argv is None else argv)
    if command == "ingest":
        return _run_ingest(args)
    if command == "trace":
        return _run_trace(args)
    if command == "ledger":
        return _run_ledger(args)
    profile = args.run_profile
    if command == "dashboard":
        return _run_dashboard(args, profile, RunStore(args.store))
    if command == "report":
        exp_ids = (
            list(ALL_EXPERIMENTS) if args.all else _expand_ids(args.experiments)
        )
        return _run_report(args, profile, RunStore(args.store), exp_ids)
    return _run_campaign(args, profile)


if __name__ == "__main__":
    sys.exit(main())
