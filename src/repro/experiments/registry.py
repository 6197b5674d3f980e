"""Experiment registry: id -> cell-plan spec.

The CLI, the benchmarks, and the integration tests all resolve experiments
through this table, so there is exactly one definition of each sweep.
Each :class:`~repro.experiments.base.ExperimentSpec` is the one entry
point: ``get_spec(id).run(profile)`` measures serially in-process, and
the parallel executor and the run store (``repro.runner``) consume its
cells.  :data:`ALL_EXPERIMENTS` is the ordered tuple of ids.

A profile is a legacy bool (True = quick) or a
:class:`~repro.experiments.base.RunProfile` carrying a preset
(quick/full/long) or an explicit ring-size override.
:data:`LONG_PRESET_EXPERIMENTS` names the counter-only experiments whose
sweeps define a dedicated ``long`` variant (n >= 10^4, metrics mode); for
the others the long preset falls back to their full sweep.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.experiments.base import ExperimentSpec
from repro.experiments import (
    e01_regular_linear,
    e02_message_graph,
    e03_multipass_compile,
    e04_info_states,
    e05_token_line,
    e06_bidi_to_unidi,
    e07_wcw_quadratic,
    e08_counters_nlogn,
    e09_hierarchy,
    e10_known_n,
    e11_passes_tradeoff,
    e12_tm_bridge,
)

ALL_SPECS: dict[str, ExperimentSpec] = {
    "E1": e01_regular_linear.SPEC,
    "E2": e02_message_graph.SPEC,
    "E3": e03_multipass_compile.SPEC,
    "E4": e04_info_states.SPEC,
    "E5": e05_token_line.SPEC,
    "E6": e06_bidi_to_unidi.SPEC,
    "E7": e07_wcw_quadratic.SPEC,
    "E8": e08_counters_nlogn.SPEC,
    "E9": e09_hierarchy.SPEC,
    "E10": e10_known_n.SPEC,
    "E11": e11_passes_tradeoff.SPEC,
    "E12": e12_tm_bridge.SPEC,
}

ALL_EXPERIMENTS: tuple[str, ...] = tuple(ALL_SPECS)

# Counter-only experiments: their sweeps run trace="metrics" end to end,
# so a dedicated `long` sweep (n >= 10^4) stays O(n)-memory and CI-cheap.
LONG_PRESET_EXPERIMENTS: tuple[str, ...] = ("E1", "E7", "E8", "E9", "E10", "E11")

# Experiments with no ring-size Sweep at all (their workloads are word
# catalogs / compiler horizons): a --sizes override cannot apply to them,
# and the CLI says so instead of silently running the defaults.
FIXED_SWEEP_EXPERIMENTS: tuple[str, ...] = ("E2", "E3", "E6")


def get_spec(exp_id: str) -> ExperimentSpec:
    """Resolve an experiment id to its cell-plan spec (case-insensitive)."""
    key = exp_id.upper()
    if key not in ALL_SPECS:
        raise ReproError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{', '.join(ALL_SPECS)}"
        )
    return ALL_SPECS[key]

