"""Campaign observability: span journal, trace reports, regression ledger.

Three zero-dependency pieces threaded through the runner stack:

* :mod:`repro.obs.journal` — an append-only JSONL sidecar of typed
  events (campaign/cell/subtask/fold/finalize/ingest spans) written
  under ``runs/_telemetry/``, strictly outside the diffed run store, so
  every byte-identity guarantee the CI enforces survives telemetry
  untouched.  ``REPRO_NO_TELEMETRY=1`` is the kill switch.
* :mod:`repro.obs.report` — replays a journal into a critical-path
  decomposition, per-worker utilization with idle-gap attribution,
  a planned-weight vs actual-seconds calibration table, and
  per-experiment/per-mode rollups (``ring-repro trace``).
* :mod:`repro.obs.ledger` — appends benchmark runs (the records
  ``perfbench/run.py`` writes) to ``benchmarks/LEDGER.jsonl``, which
  already holds the historical ``BENCH_*.json`` snapshots, and checks
  the newest run against robust per-metric drift bands
  (``ring-repro ledger check`` gates CI on them).
"""

from repro.obs.journal import (
    Journal,
    activate,
    latest_journal,
    note,
    read_journal,
    resolve_journal,
    telemetry_enabled,
    telemetry_root,
)

__all__ = [
    "Journal",
    "activate",
    "latest_journal",
    "note",
    "read_journal",
    "resolve_journal",
    "telemetry_enabled",
    "telemetry_root",
]
