"""The canonical bench record, shared by every ledger emitter.

The repo's benchmark is ``perfbench/run.py``; it writes these records
to ``perfbench/out/`` and ``ring-repro ledger append`` ingests them
into ``benchmarks/LEDGER.jsonl`` as they are.
"""

from __future__ import annotations


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
