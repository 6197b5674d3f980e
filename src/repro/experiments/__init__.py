"""The experiment suite: every theorem and §7 note as a measurement.

The paper prints no tables or figures; its evaluation *is* its theorem
statements.  Each module here turns one claim into a parameter sweep with
exact bit accounting and a pass/fail check of the claimed shape; this
table is the index:

====  =======================================================================
E1    Theorems 1/6 — regular languages cost ``ceil(log2 |Q|) * n`` bits
E2    Theorem 2 — message graphs: finite => DFA extraction; infinite witness
E3    Theorem 3 — multi-pass -> one-pass compilation stays ``O(n)``
E4    Theorems 4 — information-state counting on non-regular recognizers
E5    Theorem 5 — token serialization (<=3x) and ring->line (<=4x)
E6    Theorem 7 — bidirectional -> unidirectional compilation stays ``O(n)``
E7    §7(1) — ``w c w`` costs ``Theta(n^2)``; collect-all upper bound
E8    §7(2) — ``0^k 1^k 2^k`` costs ``Theta(n log n)``
E9    §7(3) — the ``L_g`` hierarchy: measured cost tracks ``g(n)``
E10   §7(4) — known ``n``: hierarchy down to ``Theta(n)``; non-regular at n bits
E11   §7(5) — two passes at ``(2k+1)n`` vs one pass at ``(k+2^k-1)n``
E12   Summary — the TM->ring bridge: ``BIT <= t(n) log |Q|``
====  =======================================================================

Use :func:`get_spec` (``get_spec("E7").run(profile)``) /
:data:`ALL_EXPERIMENTS` or the CLI (``python -m repro.cli``).  An
experiment module is imported the first time its id is looked up in
:data:`ALL_SPECS`, so importing this package loads none of them.
"""

from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.experiments.registry import (
    ALL_EXPERIMENTS,
    ALL_SPECS,
    FIXED_SWEEP_EXPERIMENTS,
    LONG_PRESET_EXPERIMENTS,
    get_spec,
)

__all__ = [
    "Cell",
    "ExperimentResult",
    "ExperimentSpec",
    "RunProfile",
    "Sweep",
    "cell_seed",
    "ALL_EXPERIMENTS",
    "ALL_SPECS",
    "FIXED_SWEEP_EXPERIMENTS",
    "LONG_PRESET_EXPERIMENTS",
    "get_spec",
]
