"""Experiment registry: id -> cell-plan spec.

The CLI, the benchmark (``perfbench/``), and the tests all resolve
experiments through this table, so there is exactly one definition of
each sweep.  Each :class:`~repro.experiments.base.ExperimentSpec` is
the one entry point: ``get_spec(id).run(profile)`` measures serially
in-process, and the parallel executor and the run store
(``repro.runner``) consume its cells.  :data:`ALL_EXPERIMENTS` is the ordered tuple of ids.

A profile is a legacy bool (True = quick) or a
:class:`~repro.experiments.base.RunProfile` carrying a preset
(quick/full/long) or an explicit ring-size override.
:data:`LONG_PRESET_EXPERIMENTS` names the counter-only experiments whose
sweeps define a dedicated ``long`` variant (n >= 10^4, metrics mode); for
the others the long preset falls back to their full sweep.
"""

from __future__ import annotations

import importlib
from typing import Iterator, Mapping

from repro.errors import ReproError
from repro.experiments.base import ExperimentSpec

# Id -> defining module, in catalog order.
_MODULES: dict[str, str] = {
    "E1": "e01_regular_linear",
    "E2": "e02_message_graph",
    "E3": "e03_multipass_compile",
    "E4": "e04_info_states",
    "E5": "e05_token_line",
    "E6": "e06_bidi_to_unidi",
    "E7": "e07_wcw_quadratic",
    "E8": "e08_counters_nlogn",
    "E9": "e09_hierarchy",
    "E10": "e10_known_n",
    "E11": "e11_passes_tradeoff",
    "E12": "e12_tm_bridge",
}


class _SpecTable(Mapping[str, ExperimentSpec]):
    """Read-only id -> spec table that imports each experiment on demand.

    Looking an id up imports ``repro.experiments.eNN_*`` the first time,
    so a run of two experiments never compiles the other ten (nor the
    recognizers only they use).  Iteration, ``len`` and ``in`` need no
    import; ``.values()`` and ``.items()`` import all twelve, in order.
    """

    def __init__(self) -> None:
        self._specs: dict[str, ExperimentSpec] = {}

    def __getitem__(self, exp_id: str) -> ExperimentSpec:
        spec = self._specs.get(exp_id)
        if spec is None:
            module = importlib.import_module(
                f"repro.experiments.{_MODULES[exp_id]}"
            )
            spec = self._specs[exp_id] = module.SPEC
        return spec

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)

    def __contains__(self, exp_id: object) -> bool:
        return exp_id in _MODULES

    def __repr__(self) -> str:
        return f"<experiment specs {', '.join(_MODULES)}>"


ALL_SPECS: Mapping[str, ExperimentSpec] = _SpecTable()

ALL_EXPERIMENTS: tuple[str, ...] = tuple(_MODULES)

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

