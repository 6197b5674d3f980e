"""E4 — Theorem 4: information states force ``Omega(n log n)``.

Three measurements per sweep size on the non-regular recognizers
(the counting/prime recognizer and the ``a^k b^k`` counter recognizer):

* ``distinct`` — distinct terminal information states; Theorem 4 says the
  witness executions realize at least ``ceil(n/2)`` (ours realize ``n`` or
  ``n-1``: counters make *every* state distinct);
* ``entropy`` — ``log2(d!)``, the bits needed to realize ``d`` distinct
  message logs; measured bits must exceed it;
* the growth classifier must place measured bits at ``n log n`` — the
  matching upper bound that pins these languages to ``Theta(n log n)``.

Plus the cut-segment lemma, run as surgery: on the *regular* parity
recognizer (many shared states) every equal-state cut preserves the
decision and the survivors' states, while the counting recognizer has no
two processors to cut between — the two sides of Theorem 4's dichotomy.

Trace policy: information states are reconstructed from per-processor logs, so this
experiment runs with the default ``trace="full"`` policy.

Cell plan: one cell per (recognizer, ring size) plus one cut-lemma
surgery cell; the per-recognizer growth fits fold in at finalize.
"""

from __future__ import annotations

import random

from repro.analysis.growth import classify_growth, curve_from_records
from repro.core.counters import BlockCounterRecognizer
from repro.core.counting import LengthPredicateRecognizer
from repro.core.information_state import (
    entropy_lower_bound_bits,
    equal_state_pairs,
    min_distinct_states,
    verify_cut_lemma,
)
from repro.core.regular_onepass import DFARecognizer
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.nonregular import AnBn, is_prime
from repro.languages.regular import parity_language
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(full=(8, 16, 32, 64, 128, 256), quick=(8, 16, 32))

_CASES = ("prime-length", "a^k b^k")


def _algorithm_for(case: str):
    if case == "prime-length":
        return LengthPredicateRecognizer(is_prime, name="prime"), None
    return BlockCounterRecognizer("ab"), AnBn()


def _measure(params: dict, rng: random.Random) -> dict:
    """One (recognizer, size): distinct states, entropy floor, bits."""
    case, n = params["case"], params["n"]
    algorithm, language = _algorithm_for(case)
    if language is None:
        word = "".join(rng.choice("ab") for _ in range(n))
    else:
        word = language.sample_member(n, rng)
        if word is None:
            word = language.sample_non_member(n, rng)
    trace = run_unidirectional(algorithm, word)
    distinct = trace.distinct_information_states()
    floor = min_distinct_states(n)
    entropy = entropy_lower_bound_bits(distinct)
    return {
        "case": case,
        "n": n,
        "bits": trace.total_bits,
        "distinct": distinct,
        "floor": floor,
        "entropy": entropy,
        "ok": distinct >= floor and trace.total_bits >= entropy,
    }


def _measure_cuts(params: dict, rng: random.Random) -> dict:
    """The cut-segment surgery on both sides of the dichotomy."""
    parity = parity_language()
    recognizer = DFARecognizer(parity.dfa, name="parity")
    word = "aabbab" * params["repeats"]
    trace = run_unidirectional(recognizer, word)
    pairs = equal_state_pairs(trace)
    cuts_checked = 0
    cuts_ok = True
    for pair in pairs[: params["max_cuts"]]:
        report = verify_cut_lemma(recognizer, word, pair=pair)
        cuts_checked += 1
        if report is None or not report.holds:
            cuts_ok = False
    counting_cut = verify_cut_lemma(
        LengthPredicateRecognizer(is_prime), "ab" * 8
    )
    return {
        "cuts_checked": cuts_checked,
        "cuts_ok": cuts_ok,
        "counting_has_no_cut": counting_cut is None,
    }


TITLE = "Information-state counting (Theorem 4)"


def plan(profile: RunProfile) -> list[Cell]:
    """Per-(recognizer, size) cells plus the cut-lemma surgery cell."""
    quick = bool(profile)
    cells = [
        Cell(
            exp_id="E4",
            key=f"case={case}/n={n}",
            fn=_measure,
            params={"case": case, "n": n},
            seed=cell_seed("E4", f"case={case}/n={n}"),
            weight=n,
        )
        for case in _CASES
        for n in SWEEP.sizes(profile)
    ]
    cells.append(
        Cell(
            exp_id="E4",
            key="cut-lemma",
            fn=_measure_cuts,
            params={"repeats": 2 if quick else 6, "max_cuts": 10 if quick else 40},
            seed=cell_seed("E4", "cut-lemma"),
        )
    )
    return cells


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Fold per-size records into rows, fits, and the surgery verdict."""
    result = ExperimentResult(
        exp_id="E4",
        title=TITLE,
        claim="non-regular recognizers realize Omega(n) distinct information "
        "states; bits >= log2(d!) and land at Theta(n log n)",
        columns=[
            "algorithm",
            "n",
            "bits",
            "distinct",
            "floor(n/2)",
            "entropy",
            "ok",
        ],
    )
    all_ok = True
    for case in _CASES:
        ordered = [
            records[f"case={case}/n={n}"] for n in SWEEP.sizes(profile)
        ]
        for record in ordered:
            all_ok = all_ok and record["ok"]
            result.rows.append(
                {
                    "algorithm": case,
                    "n": record["n"],
                    "bits": record["bits"],
                    "distinct": record["distinct"],
                    "floor(n/2)": record["floor"],
                    "entropy": round(record["entropy"], 1),
                    "ok": record["ok"],
                }
            )
        ns, bits = curve_from_records(ordered)
        fit = classify_growth(ns, bits)
        fit_ok = fit.model.name == "n*log(n)"
        all_ok = all_ok and fit_ok
        result.conclusions.append(
            f"{case}: measured bits classify as {fit.model.name} "
            f"(c={fit.constant:.2f})"
        )

    cuts = records["cut-lemma"]
    all_ok = all_ok and cuts["cuts_ok"] and cuts["counting_has_no_cut"]
    result.conclusions.extend(
        [
            f"cut-segment lemma held on {cuts['cuts_checked']}/"
            f"{cuts['cuts_checked']} equal-state cuts of the parity recognizer",
            "the counting recognizer has no equal-state pair to cut "
            "(all states distinct), as Theorem 4 demands of an "
            "Omega(n log n) algorithm",
        ]
    )
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E4", plan=plan, finalize=finalize, title=TITLE
)
