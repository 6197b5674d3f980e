"""E8 — §7(2): ``{0^k 1^k 2^k}`` in ``O(n log n)`` bits with three counters.

Sweep ``n = 3k`` with the three-counter recognizer on members (the maximal-
counter worst case) and non-members.  Checks:

* decisions correct both ways, and measured bits exactly match the
  closed-form per-message accounting of
  :func:`~repro.core.counters.predicted_block_counter_bits`;
* the growth classifier picks ``n log n`` — which, combined with the E4
  lower bound (the language is non-regular), pins the §7(2) claim:
  a context-sensitive, non-context-free language at ``Theta(n log n)``,
  *below* the linear language of E7.  The Chomsky hierarchy does not order
  ring bit complexity.

Cell plan: one cell per ring size (member + non-member runs); the fit and
the conclusions fold in at finalize.  The long sweep carries six sizes so
the largest cell is well under half the total — a ``--jobs 4`` run keeps
every worker busy instead of serializing behind n_max.
"""

from __future__ import annotations

import math
import random

from repro.analysis.growth import classify_growth, curve_from_records, log_log_slope
from repro.core.counters import BlockCounterRecognizer, predicted_block_counter_bits
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.nonregular import AnBnCn
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(
    full=(6, 12, 24, 48, 96, 192, 384, 510, 1023),
    quick=(6, 12, 24, 48),
    long=(2046, 4098, 6144, 8190, 12288, 16383),
)


def _measure(params: dict, rng: random.Random) -> dict:
    """One ring size: member worst case + non-member rejection."""
    n = params["n"]
    language = AnBnCn()
    algorithm = BlockCounterRecognizer("012")
    member = language.sample_member(n, rng)
    assert member is not None
    trace = run_unidirectional(algorithm, member, trace="metrics")
    non_member = language.sample_non_member(n, rng)
    rejected = (
        run_unidirectional(algorithm, non_member, trace="metrics").decision
        is False
    )
    predicted = predicted_block_counter_bits(n, 3)
    return {
        "n": n,
        "bits": trace.total_bits,
        "predicted": predicted,
        "decision_ok": (
            trace.decision is True and rejected and trace.total_bits == predicted
        ),
    }


TITLE = "0^k 1^k 2^k in Theta(n log n) bits (§7(2))"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-size cells over the profile's sweep."""
    return [
        Cell(
            exp_id="E8",
            key=f"n={n}",
            fn=_measure,
            params={"n": n},
            seed=cell_seed("E8", f"n={n}"),
            weight=n,
        )
        for n in SWEEP.sizes(profile)
    ]


def curves(profile: RunProfile, records: dict) -> dict:
    """The single measured-bit curve — what finalize fits."""
    return {
        "0^k1^k2^k": curve_from_records(
            [records[f"n={n}"] for n in SWEEP.sizes(profile)]
        )
    }


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Fold per-size records into the table, the fit, and the verdict."""
    result = ExperimentResult(
        exp_id="E8",
        title=TITLE,
        claim="three gamma-coded counters recognize the language in "
        "Theta(n log n) bits",
        columns=["n", "bits", "predicted", "bits/(n log n)", "decision_ok"],
    )
    ordered = [records[f"n={n}"] for n in SWEEP.sizes(profile)]
    all_ok = all(record["decision_ok"] for record in ordered)
    for record in ordered:
        n = record["n"]
        result.rows.append(
            {
                "n": n,
                "bits": record["bits"],
                "predicted": record["predicted"],
                "bits/(n log n)": round(
                    record["bits"] / (n * math.log2(n)), 3
                ),
                "decision_ok": record["decision_ok"],
            }
        )
    # Same extraction refit_from_store replays against stored records.
    ns, bits = curves(profile, records)["0^k1^k2^k"]
    fit = classify_growth(ns, bits)
    slope = log_log_slope(ns, bits)
    if fit.model.name != "n*log(n)":
        all_ok = False
    result.conclusions = [
        f"classified {fit.model.name} (c={fit.constant:.2f}), "
        f"log-log slope {slope:.2f}",
        "measured bits equal the closed-form per-message accounting exactly",
        "a context-sensitive non-CF language sits at Theta(n log n), below "
        "E7's linear language at Theta(n^2): bit complexity is not the "
        "Chomsky hierarchy",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E8", plan=plan, finalize=finalize, curves=curves, title=TITLE
)
