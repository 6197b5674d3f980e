"""Machine-readable dashboard exports.

Three artifacts, all byte-deterministic for a fixed store:

* ``campaign.json`` — the whole campaign as data: per-experiment result
  rows, conclusions, pass flags, per-cell provenance (config hash, store
  path, wall clock), and every fitted growth curve with its ``(ns,
  bits)`` series — exactly the fits ``ring-repro report --all --refit``
  prints, so the export round-trips them (re-running
  :func:`repro.analysis.growth.classify_growth` on the exported series
  reproduces the exported fit verbatim);
* per-experiment ``<exp>.cells.csv`` — one row per stored cell, through
  the same rendering pass as every other table
  (:func:`repro.analysis.tables.rows_to_csv`);
* ``bench-trajectory.json`` — every ``benchmarks/BENCH_*.json`` the
  repo has accumulated, folded into one file keyed by benchmark name,
  so perf drift across PRs is a single view.

JSON is serialized with sorted keys and a trailing newline; CSV with
``\\n`` line ends — two renders of the same store diff clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.tables import rows_to_csv
from repro.dashboard.assemble import CampaignView, ExperimentView
from repro.obs.ledger import normalize_bench_data

__all__ = [
    "bench_trajectory_payload",
    "campaign_payload",
    "cells_csv",
    "dump_json",
]

# v2: per-cell "shard" provenance (fleet partition membership, derived
# from cell identity for the campaign's "fleet" size) in campaign.json
# and the cells CSVs.
# v3: per-cell "parts" roster (divisible cells' subtask decomposition,
# with the stored wall clock split back proportional to the planned
# subtask weights — derived, not recorded, like "shard") in
# campaign.json and the cells CSVs; empty for monolithic cells.
# v4: each bench-trajectory entry carries "records" — the file's
# measurements normalized to the canonical {name, value, unit, context}
# schema (repro.obs.ledger), alongside the verbatim "data".
CAMPAIGN_SCHEMA = 4

CELL_CSV_COLUMNS = (
    "exp_id",
    "preset",
    "key",
    "mode",
    "config_hash",
    "seconds",
    "weight",
    "shard",
    "verify",
    "parts",
    "params",
    "path",
)


def dump_json(payload: dict) -> str:
    """Canonical JSON text: sorted keys, one-space indent, newline-final."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _experiment_payload(view: ExperimentView) -> dict:
    out: dict = {
        "title": view.title,
        "complete": view.complete,
        "status": view.status,
        "cell_seconds": round(view.cell_seconds, 6),
        "cells": [
            {
                "key": cell.key,
                "mode": cell.mode,
                "config_hash": cell.config_hash,
                "params": cell.params,
                "seconds": cell.seconds,
                "weight": cell.weight,
                "shard": cell.shard,
                "verify": cell.verify,
                "parts": [
                    {"part": part, "seconds": round(seconds, 6)}
                    for part, seconds in cell.parts
                ],
                "path": cell.path,
            }
            for cell in view.cells
        ],
        "missing": list(view.missing),
        "stale": list(view.stale),
        "model_cells": view.model_cell_count,
        "calibration": view.calibration,
        "error": view.error,
    }
    if view.result is not None:
        out["result"] = {
            "claim": view.result.claim,
            "columns": list(view.result.columns),
            "rows": list(view.result.rows),
            "conclusions": list(view.result.conclusions),
            "passed": view.result.passed,
        }
    out["fits"] = {
        curve.name: {**curve.fit.as_dict(), "ns": curve.ns, "bits": curve.bits}
        for curve in view.curves
    }
    return out


def campaign_payload(campaign: CampaignView) -> dict:
    """``campaign.json`` as a plain dict (tests consume this directly)."""
    return {
        "schema": CAMPAIGN_SCHEMA,
        "preset": campaign.preset,
        "sizes": list(campaign.sizes) if campaign.sizes else None,
        "store": campaign.store_root,
        "fleet": campaign.fleet,
        "experiments": {
            view.exp_id: _experiment_payload(view)
            for view in campaign.experiments
        },
        "totals": {
            "experiments": len(campaign.experiments),
            "complete": campaign.complete_count,
            "passed": campaign.passed_count,
            "stored_cells": campaign.stored_cells,
            "cell_seconds": round(campaign.cell_seconds, 6),
            "model_cells": sum(
                view.model_cell_count for view in campaign.experiments
            ),
            "calibration": {
                verdict: sum(
                    view.calibration[verdict]
                    for view in campaign.experiments
                )
                for verdict in ("PASS", "FAIL")
            },
        },
    }


def cells_csv(view: ExperimentView, preset: str) -> str:
    """One CSV row per stored cell, in plan order."""
    rows = [
        {
            "exp_id": view.exp_id,
            "preset": preset,
            "key": cell.key,
            "mode": cell.mode,
            "config_hash": cell.config_hash,
            "seconds": cell.seconds,
            "weight": cell.weight,
            "shard": cell.shard,
            "verify": cell.verify,
            "parts": json.dumps(
                [
                    {"part": part, "seconds": round(seconds, 6)}
                    for part, seconds in cell.parts
                ],
                sort_keys=True,
                separators=(",", ":"),
            ),
            "params": json.dumps(
                cell.params, sort_keys=True, separators=(",", ":")
            ),
            "path": cell.path,
        }
        for cell in view.cells
    ]
    return rows_to_csv(rows, CELL_CSV_COLUMNS)


def bench_trajectory_payload(bench_dir) -> dict:
    """Fold every ``BENCH_*.json`` under ``bench_dir`` into one view.

    A missing directory or an empty glob is not an error: the payload
    still carries ``count`` and an explanatory ``note`` so the rendered
    page (and CI consumers) see an honest "no benchmarks yet" instead of
    a bare degenerate ``[]``.
    """
    bench_dir = Path(bench_dir)
    entries = []
    if bench_dir.is_dir():
        for path in sorted(bench_dir.glob("BENCH_*.json")):
            entry: dict = {"file": path.name}
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                entry["error"] = str(error)
            else:
                entry["date"] = (
                    data.get("date") if isinstance(data, dict) else None
                )
                entry["data"] = data
                entry["records"] = normalize_bench_data(
                    data, context=path.name
                )
            entries.append(entry)
    payload: dict = {
        "schema": CAMPAIGN_SCHEMA,
        "benchmarks": entries,
        "count": len(entries),
    }
    if not entries:
        payload["note"] = (
            f"no BENCH_*.json records under {bench_dir.as_posix()}; "
            "run the benchmarks/ scripts to seed the perf trajectory"
        )
    return payload
