"""Execution layer for experiment cell plans.

``repro.experiments`` declares *what* to measure (cell plans);
this package decides *how*: :mod:`repro.runner.campaign` flattens any
set of experiments into one shared heaviest-first cell pool (the CLI
runs every request — one experiment or all twelve — as a campaign),
:mod:`repro.runner.executor` keeps the single-experiment API on top of
it, and :mod:`repro.runner.store` persists every cell record as a JSON
file under ``runs/`` so interrupted campaigns resume from what they
already measured and ``ring-repro report`` re-renders tables — and
refits growth laws (:func:`repro.analysis.growth.refit_from_store`) —
without re-simulating.  :mod:`repro.runner.sharding` partitions one
campaign across N machines (``--shard i/N``) and
:mod:`repro.runner.ingest` merges their stores back into one fleet
store with explicit conflict rules.
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "CampaignExecution": ".campaign",
    "CellOutcome": ".executor",
    "IngestConflict": ".ingest",
    "IngestReport": ".ingest",
    "PartialExecution": ".campaign",
    "PlanExecution": ".executor",
    "RunStore": ".store",
    "SHARD_STRATEGIES": ".sharding",
    "StoredCell": ".store",
    "execute_campaign": ".campaign",
    "execute_plan": ".executor",
    "ingest_stores": ".ingest",
    "lpt_assignment": ".sharding",
    "owns": ".sharding",
    "parse_shard": ".sharding",
    "report_from_store": ".executor",
    "shard_assignment": ".sharding",
    "shard_index": ".sharding",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
