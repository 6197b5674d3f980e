"""Measurement analysis: growth-model fitting and table rendering.

The paper's claims are asymptotic classes (``O(n)``, ``Theta(n log n)``,
``Theta(n^2)``, ``Theta(g(n))``).  The experiments measure exact bit counts
over sweeps of ``n`` and use :func:`repro.analysis.growth.classify_growth`
to decide which model the curve follows; :mod:`repro.analysis.tables`
renders the rows recorded in EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "GrowthModel": ".models",
    "STANDARD_MODELS": ".models",
    "model_named": ".models",
    "FitResult": ".growth",
    "fit_model": ".growth",
    "classify_growth": ".growth",
    "log_log_slope": ".growth",
    "format_table": ".tables",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
