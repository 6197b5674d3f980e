"""Append-only perf-regression ledger with robust drift bands.

``benchmarks/LEDGER.jsonl`` is the benchmark trajectory as a gate
instead of a graveyard: one JSON object per line::

    {"run": ..., "recorded": ..., "name": ..., "value": ..., "unit": ..., "context": ...}

* ``ring-repro ledger append FILE`` appends one fresh bench run
  (``perfbench/run.py`` writes the canonical
  ``{"records": [{name, value, unit, context}]}`` shape to
  ``perfbench/out/``);
* ``ring-repro ledger check`` validates the **newest run** against the
  trailing history of each of its metrics and exits nonzero when a
  value leaves its band.

The historical ``BENCH_*.json`` snapshots are already folded into the
ledger, one run per file named after it.

Bands are robust by construction: center = median of the trailing
window, halfwidth = ``max(k * MAD, rel_floor * |median|, abs_floor)``.
The MAD alone would collapse to zero on deterministic counts (every
historical value identical), failing any legitimate change, so the
relative floor keeps a proportional corridor open; metrics with fewer
than ``min_history`` prior points are reported as *new* and pass.  When
a metric legitimately shifts regimes, append fresh runs until the
trailing window is dominated by the new level (or check with a smaller
``window``) — the ledger is append-only on principle, like the run
store.

Normalization of arbitrary bench JSON (:func:`normalize_bench_data`)
walks the object tree and emits every numeric leaf reachable through
dicts (and lists of dicts, indexed positionally) as a dotted-path
metric; scalar arrays (size sweeps, leg lists) are skipped — they are
workload coordinates, not measurements — and a ``unit`` string sibling
annotates its dict's numeric leaves.  Files already carrying the
canonical ``records`` list bypass the walk entirely.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

from repro.errors import ReproError

__all__ = [
    "DEFAULT_LEDGER",
    "LedgerCheck",
    "append_run",
    "check_ledger",
    "normalize_bench_data",
    "normalize_bench_file",
    "read_ledger",
]

DEFAULT_LEDGER = Path("benchmarks") / "LEDGER.jsonl"

DEFAULT_WINDOW = 8
DEFAULT_BAND_K = 5.0
DEFAULT_REL_FLOOR = 0.25
DEFAULT_MIN_HISTORY = 3


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _canonical_records(data) -> "list[dict] | None":
    """The ``records`` list if ``data`` is already canonical, else None."""
    if not isinstance(data, dict):
        return None
    records = data.get("records")
    if not isinstance(records, list) or not records:
        return None
    if not all(
        isinstance(rec, dict)
        and isinstance(rec.get("name"), str)
        and _is_number(rec.get("value"))
        for rec in records
    ):
        return None
    return [
        {
            "name": rec["name"],
            "value": rec["value"],
            "unit": str(rec.get("unit", "")),
            "context": str(rec.get("context", "")),
        }
        for rec in records
    ]


def normalize_bench_data(data, context: str = "") -> "list[dict]":
    """Every numeric measurement in ``data`` as canonical records.

    One schema out — ``{name, value, unit, context}`` — whatever schema
    came in, so the ledger and ``bench-trajectory.json`` ingest every
    historical ``BENCH_*.json`` without per-file special cases.
    """
    canonical = _canonical_records(data)
    if canonical is not None:
        for rec in canonical:
            rec["context"] = rec["context"] or context
        return canonical
    records: "list[dict]" = []

    def walk(node, path: str, unit: str) -> None:
        if isinstance(node, dict):
            own_unit = node.get("unit")
            scope_unit = own_unit if isinstance(own_unit, str) else unit
            for key in sorted(node):
                if key == "unit":
                    continue
                child_path = f"{path}.{key}" if path else str(key)
                walk(node[key], child_path, scope_unit)
        elif isinstance(node, list):
            # Lists of objects are row sets (indexed positionally);
            # lists of scalars are workload coordinates (sizes, legs)
            # and carry no measurement of their own.
            if all(isinstance(item, dict) for item in node):
                for index, item in enumerate(node):
                    walk(item, f"{path}.{index}" if path else str(index), unit)
        elif _is_number(node) and path:
            records.append(
                {
                    "name": path,
                    "value": node,
                    "unit": unit,
                    "context": context,
                }
            )

    walk(data, "", "")
    return records


def normalize_bench_file(path: "str | Path") -> "list[dict]":
    """Canonical records for one bench JSON file (its name as context)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable bench file {path} ({error})") from None
    return normalize_bench_data(data, context=path.name)


def read_ledger(path: "str | Path") -> "list[dict]":
    """Every well-formed ledger entry, in file order.

    Blank and unparseable lines are skipped (the ledger is committed,
    but one bad merge line must not take the whole gate down with a
    stack trace — the check reports on what parses).
    """
    path = Path(path)
    entries: "list[dict]" = []
    if not path.is_file():
        return entries
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if (
            isinstance(entry, dict)
            and isinstance(entry.get("run"), str)
            and isinstance(entry.get("name"), str)
            and _is_number(entry.get("value"))
        ):
            entries.append(entry)
    return entries


def _append_lines(path: Path, entries: "list[dict]") -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def append_run(
    path: "str | Path",
    run: str,
    records: "list[dict]",
    recorded: str = "",
) -> int:
    """Append one run's records; returns how many lines were written.

    A run id already in the ledger is an error: runs are immutable once
    recorded (re-record under a fresh id instead of shadowing history).
    """
    path = Path(path)
    if not run:
        raise ReproError("ledger runs need a non-empty run id")
    if not records:
        raise ReproError(f"run {run!r} carries no records; nothing to append")
    existing = {entry["run"] for entry in read_ledger(path)}
    if run in existing:
        raise ReproError(
            f"run {run!r} is already in {path}; the ledger is append-only — "
            "record a new run under a fresh id"
        )
    _append_lines(
        path,
        [
            {
                "run": run,
                "recorded": recorded,
                "name": rec["name"],
                "value": rec["value"],
                "unit": str(rec.get("unit", "")),
                "context": str(rec.get("context", "")),
            }
            for rec in records
        ],
    )
    return len(records)


class LedgerCheck:
    """One ``ledger check`` outcome: per-metric verdicts for the last run."""

    def __init__(self, run: str):
        self.run = run
        self.rows: "list[dict]" = []

    @property
    def violations(self) -> "list[dict]":
        return [row for row in self.rows if row["verdict"] == "DRIFT"]

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        counts = {"OK": 0, "NEW": 0, "DRIFT": 0}
        for row in self.rows:
            counts[row["verdict"]] += 1
        lines = [
            f"ledger check: run {self.run} — {len(self.rows)} metric(s): "
            f"{counts['OK']} within band, {counts['NEW']} new, "
            f"{counts['DRIFT']} drifted"
        ]
        for row in self.violations:
            lines.append(
                f"  DRIFT {row['name']}: {row['value']:g}{row['unit']} "
                f"outside [{row['lo']:g}, {row['hi']:g}] "
                f"(median {row['median']:g} over {row['history']} prior "
                "entries)"
            )
        if self.passed:
            lines.append("  every metric within its drift band")
        return "\n".join(lines)


def check_ledger(
    path: "str | Path",
    window: int = DEFAULT_WINDOW,
    band_k: float = DEFAULT_BAND_K,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = 0.0,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> LedgerCheck:
    """Validate the ledger's newest run against its trailing bands.

    The newest run is the last distinct ``run`` id in file order.  For
    each of its metrics: history = that metric's entries from *earlier*
    runs, trailing ``window`` of them; fewer than ``min_history`` prior
    points → NEW (pass); otherwise the value must land within
    ``median ± max(band_k * MAD, rel_floor * |median|, abs_floor)``.
    """
    entries = read_ledger(path)
    if not entries:
        raise ReproError(
            f"ledger {path} holds no entries; record a bench run first "
            "(ring-repro ledger append FILE)"
        )
    last_run = entries[-1]["run"]
    check = LedgerCheck(run=last_run)
    current = [entry for entry in entries if entry["run"] == last_run]
    history_all = [entry for entry in entries if entry["run"] != last_run]
    for entry in current:
        history = [
            float(prior["value"])
            for prior in history_all
            if prior["name"] == entry["name"]
        ][-window:]
        row = {
            "name": entry["name"],
            "value": float(entry["value"]),
            "unit": entry.get("unit", ""),
            "history": len(history),
        }
        if len(history) < min_history:
            row.update(verdict="NEW", median=0.0, lo=0.0, hi=0.0)
        else:
            center = median(history)
            mad = median(abs(value - center) for value in history)
            half = max(band_k * mad, rel_floor * abs(center), abs_floor)
            lo, hi = center - half, center + half
            row.update(
                verdict=(
                    "OK" if lo <= row["value"] <= hi else "DRIFT"
                ),
                median=center,
                lo=lo,
                hi=hi,
            )
        check.rows.append(row)
    return check
