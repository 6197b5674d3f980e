"""Growth classification of measured bit curves.

Given samples ``(n_i, bits_i)``, each candidate model ``f`` is scored by
how *constant* the implied coefficient ``bits_i / f(n_i)`` is across the
sweep (coefficient of variation over the larger-``n`` half, where the
asymptotic regime dominates).  The winning model plus the fitted constant
and an R-squared against ``c * f(n)`` form the :class:`FitResult` an
experiment of README.md's E1-E12 table reports.

The classifier deliberately avoids scipy curve fitting: the paper's claims
are about *which shelf* a curve sits on, not parametric regression, and
ratio-flatness separates ``n`` / ``n log n`` / ``n^2`` unambiguously at the
sweep sizes used here.  :func:`log_log_slope` (ordinary least squares on
``log n`` vs ``log bits``) is provided as an independent cross-check of the
polynomial degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.models import STANDARD_MODELS, GrowthModel
from repro.errors import ReproError

__all__ = [
    "FitResult",
    "fit_model",
    "classify_growth",
    "curve_from_records",
    "log_log_slope",
    "measure_curve",
    "refit_from_store",
    "ThetaCheck",
    "theta_check",
]


def refit_from_store(runs_dir, exp: str, preset="full") -> dict:
    """Regenerate an experiment's growth fits from persisted cell records.

    ``runs_dir`` is a run-store root (the CLI's ``--store``, default
    ``runs/``), ``exp`` an experiment id, and ``preset`` a preset name or
    a full :class:`~repro.experiments.base.RunProfile` (so ``--sizes``
    overrides refit too).  Returns ``{curve_name: FitResult}`` — exactly
    the fits the experiment's finalize computes — derived from the store
    alone: nothing is simulated, and a store missing any cell of the
    plan fails loudly (:meth:`~repro.runner.store.RunStore.require_all`)
    instead of fitting a partial curve.  Experiments that declare no
    growth curves (word catalogs, closed-form trade-offs) raise.

    Because every experiment's ``finalize`` fits the series its
    ``curves`` hook extracts, a refit across presets is a pure re-read:
    run ``ring-repro all --preset long`` once, then refit any experiment
    under any stored preset without paying simulation time again.
    """
    # Imported lazily: the experiment modules import this module for
    # classify_growth, so the analysis layer cannot depend on them at
    # import time.
    from repro.experiments.base import RunProfile
    from repro.experiments.registry import get_spec
    from repro.runner.store import RunStore

    spec = get_spec(exp)
    if spec.curves is None:
        # Checked before the store: a curveless experiment cannot be
        # refitted no matter what records exist.
        raise ReproError(
            f"{spec.exp_id} fits no growth curves (no ring-size sweep "
            "to refit)"
        )
    profile = (
        preset
        if isinstance(preset, RunProfile)
        else RunProfile(preset=preset)
    )
    cells = spec.cells(profile)
    loaded = RunStore(runs_dir).require_all(cells, profile)
    records = {key: stored.record for key, stored in loaded.items()}
    return {
        name: classify_growth(ns, bits)
        for name, (ns, bits) in spec.growth_curves(profile, records).items()
    }


def curve_from_records(
    records, n_key: str = "n", bits_key: str = "bits"
) -> tuple[list[int], list[int]]:
    """Extract a ``(ns, bits)`` curve from cell records.

    The experiment finalizers fit growth models from stored JSON records
    (``ring-repro report``) exactly as from fresh measurements: records
    are plain mappings, and only the two named fields are read.  Records
    missing ``n_key`` (e.g. skipped sizes a language cannot realize) are
    dropped rather than treated as zero.
    """
    pairs = [
        (record[n_key], record[bits_key])
        for record in records
        if record.get(n_key) is not None
    ]
    return [n for n, _ in pairs], [b for _, b in pairs]


def measure_curve(sizes, measure) -> tuple[list[int], list[int]]:
    """Evaluate ``measure(n)`` over a sweep, returning ``(ns, bits)`` lists.

    ``measure`` typically wraps a ``trace="metrics"`` simulator run and
    returns its ``total_bits`` — e.g.::

        ns, bits = measure_curve(
            sweep.sizes(quick),
            lambda n: run_unidirectional(
                algorithm, language.sample_member(n, rng), trace="metrics"
            ).total_bits,
        )
        fit = classify_growth(ns, bits)

    Nothing but the two integer lists is retained, so arbitrarily long
    sweeps stay O(#sizes) memory regardless of how many messages each
    execution delivers.
    """
    ns: list[int] = []
    bits: list[int] = []
    for n in sizes:
        ns.append(n)
        bits.append(measure(n))
    return ns, bits


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one model to one measured curve."""

    model: GrowthModel
    constant: float
    dispersion: float  # coefficient of variation of bits/f(n), tail half
    r_squared: float

    def __str__(self) -> str:
        return (
            f"{self.model.name}: c={self.constant:.3f} "
            f"cv={self.dispersion:.4f} R2={self.r_squared:.5f}"
        )

    def as_dict(self) -> dict:
        """JSON-ready form (the dashboard's ``campaign.json`` export).

        ``model`` round-trips through
        :func:`repro.analysis.models.model_named`, so a consumer can
        re-evaluate ``constant * f(n)`` from the export alone.
        """
        return {
            "model": self.model.name,
            "constant": self.constant,
            "dispersion": self.dispersion,
            "r_squared": self.r_squared,
            "rendered": str(self),
        }


def _validate(ns: Sequence[int], bits: Sequence[int]) -> None:
    if len(ns) != len(bits):
        raise ReproError("ns and bits must have equal lengths")
    if len(ns) < 3:
        raise ReproError("need at least 3 sample points to classify growth")
    if any(n < 1 for n in ns):
        raise ReproError("ring sizes must be positive")
    if any(b < 0 for b in bits):
        raise ReproError("bit counts must be non-negative")


def fit_model(
    ns: Sequence[int], bits: Sequence[int], model: GrowthModel
) -> FitResult:
    """Fit ``bits ~ c * model(n)`` and score the fit (see module docstring)."""
    _validate(ns, bits)
    ratios = [b / model(n) for n, b in zip(ns, bits)]
    tail = ratios[len(ratios) // 2 :]
    mean = sum(tail) / len(tail)
    if mean == 0:
        dispersion = math.inf
    else:
        variance = sum((r - mean) ** 2 for r in tail) / len(tail)
        dispersion = math.sqrt(variance) / mean
    constant = mean
    predictions = [constant * model(n) for n in ns]
    total = sum((b - sum(bits) / len(bits)) ** 2 for b in bits)
    residual = sum((b - p) ** 2 for b, p in zip(bits, predictions))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return FitResult(model, constant, dispersion, r_squared)


def classify_growth(
    ns: Sequence[int],
    bits: Sequence[int],
    models: Sequence[GrowthModel] = STANDARD_MODELS,
) -> FitResult:
    """The best-fitting model: minimal tail dispersion of ``bits / f(n)``."""
    fits = [fit_model(ns, bits, model) for model in models]
    return min(fits, key=lambda fit: fit.dispersion)


def log_log_slope(ns: Sequence[int], bits: Sequence[int]) -> float:
    """OLS slope of ``log2 bits`` against ``log2 n``.

    An independent estimate of the polynomial degree: ~1 for linear, ~2 for
    quadratic; ``n log n`` lands slightly above 1 and drifts down as ``n``
    grows.
    """
    _validate(ns, bits)
    points = [
        (math.log2(n), math.log2(b)) for n, b in zip(ns, bits) if b > 0 and n > 1
    ]
    if len(points) < 2:
        raise ReproError("not enough positive samples for a slope")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    if sxx == 0:
        raise ReproError("degenerate sweep: all ring sizes equal")
    return sxy / sxx


@dataclass(frozen=True)
class ThetaCheck:
    """Outcome of an explicit-constant Theta(f) envelope check.

    ``ok`` means every measured ratio ``bits/f(n)`` sat inside
    ``[low, high]`` and the tail-half coefficient of variation stayed below
    ``max_dispersion`` — i.e. the curve is ``Theta(f)`` with the stated
    constants, which is a *stronger* statement than winning a model
    competition (and the only sound one at ring sizes where, say,
    ``sqrt(n)`` and ``log^2 n`` are numerically indistinguishable: they
    cross near n = 65536, far beyond a simulated sweep).
    """

    ok: bool
    min_ratio: float
    max_ratio: float
    dispersion: float


def theta_check(
    ns: Sequence[int],
    bits: Sequence[int],
    f,
    low: float,
    high: float,
    max_dispersion: float = 0.10,
) -> ThetaCheck:
    """Check ``bits(n)`` is ``Theta(f(n))`` with explicit constants.

    ``f`` is any callable ``n -> number``.  See :class:`ThetaCheck`.
    """
    _validate(ns, bits)
    ratios = [b / max(float(f(n)), 1.0) for n, b in zip(ns, bits)]
    tail = ratios[len(ratios) // 2 :]
    mean = sum(tail) / len(tail)
    if mean == 0:
        dispersion = math.inf
    else:
        variance = sum((r - mean) ** 2 for r in tail) / len(tail)
        dispersion = math.sqrt(variance) / mean
    ok = (
        min(ratios) >= low
        and max(ratios) <= high
        and dispersion <= max_dispersion
    )
    return ThetaCheck(ok, min(ratios), max(ratios), dispersion)
