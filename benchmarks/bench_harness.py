"""Shared helper for the benchmark harness.

Each ``bench_eNN_*.py`` regenerates one experiment's table (the paper has
no numbered tables/figures, so the experiment suite E1-E11 — one per
theorem / §7 note — is the set of "tables" this harness reproduces; see
DESIGN.md §4 and EXPERIMENTS.md).  The experiment runs once inside
pytest-benchmark's timer (rounds=1: these are end-to-end sweeps, not
microseconds), prints the regenerated table, and asserts the paper's
claimed shape held.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import get_spec


def bench_record(
    name: str, value, unit: str = "", context: str = ""
) -> dict:
    """One canonical measurement: ``{name, value, unit, context}``.

    This is the schema ``repro.obs.ledger`` normalizes every historical
    ``BENCH_*.json`` layout *to*; new emitters should write it directly
    so the ledger ingests them verbatim instead of via the recursive
    fallback walk.
    """
    return {"name": name, "value": value, "unit": unit, "context": context}


def write_bench_records(
    path, records: "list[dict]", date: str = "", machine: str = ""
) -> Path:
    """Write one canonical bench payload: ``{records: [...]}`` + metadata.

    Serialized like every other repo artifact (sorted keys, one-space
    indent, trailing newline) so two runs of the same measurement diff
    clean outside the ``value`` fields.
    """
    payload: dict = {"records": list(records)}
    if date:
        payload["date"] = date
    if machine:
        payload["machine"] = machine
    path = Path(path)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    return path


def run_experiment_benchmark(benchmark, exp_id: str, quick: bool = False):
    """Time one full experiment, print its table, and assert it passed."""
    result = benchmark.pedantic(
        get_spec(exp_id).run, args=(quick,), rounds=1, iterations=1
    )
    print()
    print(result.render())
    result.require_passed()
    return result
