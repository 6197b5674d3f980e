"""E1 — Theorems 1 & 6: regular languages cost exactly ``ceil(log2 |Q|) n``.

Six regular languages spanning DFA sizes 2..48 are run through the
Theorem 1 recognizer on the unidirectional ring and (Theorem 6) through
the bidirectional ring under a random scheduler.  Checks:

* decisions agree with the language on members and non-members at every
  size;
* measured bits equal the construction's exact prediction
  ``ceil(log2 |Q|) * n`` in both models;
* the growth classifier picks ``n`` over the whole model ladder.

Cell plan: one cell per ring size, measuring all six languages at that
size; finalize folds the per-size records into one table row per
language (the per-language growth fits span the sizes).
"""

from __future__ import annotations

import random

from repro.analysis.growth import classify_growth
from repro.core.regular_bidirectional import BidirectionalDFARecognizer
from repro.core.regular_onepass import DFARecognizer
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.regular import (
    RegularLanguage,
    length_mod_language,
    mod_count_language,
    parity_language,
    regex_language,
    substring_language,
    tradeoff_language,
)
from repro.ring.bidirectional import run_bidirectional
from repro.ring.schedulers import RandomScheduler
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(
    full=(4, 8, 16, 32, 64, 128, 256, 512, 1024),
    quick=(4, 8, 16, 32),
    long=(2048, 4096, 8192, 16384),
)


def _languages() -> list[RegularLanguage]:
    tradeoff = tradeoff_language(2)
    return [
        parity_language(),
        mod_count_language("a", 3, 1),
        substring_language("abb"),
        length_mod_language(5, 2),
        regex_language("(a|b)*abb(a|b)*|a+", "(a|b)*abb(a|b)*|a+", "ab"),
        RegularLanguage(tradeoff.name, tradeoff.to_dfa()),
    ]


def _measure(params: dict, rng: random.Random) -> dict:
    """One ring size: every language through both ring models."""
    n = params["n"]
    out = []
    for language in _languages():
        uni = DFARecognizer(language.dfa, name=language.name)
        bidi = BidirectionalDFARecognizer(language.dfa, name=language.name)
        exact = True
        decisions_ok = True
        words = [
            word
            for word in (
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
            )
            if word is not None
        ]
        for word in words:
            trace = run_unidirectional(uni, word, trace="metrics")
            if trace.decision != language.contains(word):
                decisions_ok = False
            if trace.total_bits != uni.predicted_bits(n):
                exact = False
            bi_trace = run_bidirectional(
                bidi, word, scheduler=RandomScheduler(seed=n), trace="metrics"
            )
            if bi_trace.decision != language.contains(word):
                decisions_ok = False
            if bi_trace.total_bits != trace.total_bits:
                exact = False
        out.append(
            {
                "language": language.name,
                "states": len(uni.dfa.states),
                "bits_per_message": uni.bits_per_message,
                "predicted": uni.predicted_bits(n),
                "exact": exact,
                "decisions_ok": decisions_ok,
            }
        )
    return {"n": n, "languages": out}


TITLE = "Regular languages in O(n) bits (Theorems 1 and 6)"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-size cells over the profile's sweep."""
    return [
        Cell(
            exp_id="E1",
            key=f"n={n}",
            fn=_measure,
            params={"n": n},
            seed=cell_seed("E1", f"n={n}"),
            weight=n,
        )
        for n in SWEEP.sizes(profile)
    ]


def curves(profile: RunProfile, records: dict) -> dict:
    """One exact-bit curve per language — what finalize fits."""
    sizes = SWEEP.sizes(profile)
    ordered = [records[f"n={n}"] for n in sizes]
    ns = [record["n"] for record in ordered]
    return {
        summary["language"]: (
            ns,
            [record["languages"][index]["predicted"] for record in ordered],
        )
        for index, summary in enumerate(ordered[-1]["languages"])
    }


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Fold per-size records into one row per language plus its fit."""
    result = ExperimentResult(
        exp_id="E1",
        title=TITLE,
        claim="BIT(n) = ceil(log2 |Q|) * n for the DFA recognizer, uni & bidi",
        columns=[
            "language",
            "|Q|",
            "bits/msg",
            "n_max",
            "bits(n_max)",
            "predicted",
            "exact",
            "fit",
            "ok",
        ],
    )
    sizes = SWEEP.sizes(profile)
    ordered = [records[f"n={n}"] for n in sizes]
    all_ok = True
    curve_map = curves(profile, records)
    for index, summary in enumerate(ordered[-1]["languages"]):
        per_size = [record["languages"][index] for record in ordered]
        # Same extraction refit_from_store replays against stored records.
        ns, bits = curve_map[summary["language"]]
        exact = all(entry["exact"] for entry in per_size)
        decisions_ok = all(entry["decisions_ok"] for entry in per_size)
        fit = classify_growth(ns, bits)
        ok = decisions_ok and exact and fit.model.name == "n"
        all_ok = all_ok and ok
        result.rows.append(
            {
                "language": summary["language"],
                "|Q|": summary["states"],
                "bits/msg": summary["bits_per_message"],
                "n_max": ns[-1],
                "bits(n_max)": bits[-1],
                "predicted": summary["predicted"],
                "exact": exact,
                "fit": fit.model.name,
                "ok": ok,
            }
        )
    result.conclusions = [
        "every regular recognizer measured exactly ceil(log2|Q|)*n bits",
        "bidirectional (Theorem 6) runs cost the same bits under a random scheduler",
        "growth classifier selects 'n' for every language",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E1", plan=plan, finalize=finalize, curves=curves, title=TITLE
)
