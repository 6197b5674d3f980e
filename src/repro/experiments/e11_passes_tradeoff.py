"""E11 — §7(5): two passes at ``(2k+1)n`` bits vs one pass at ``(k+2^k-1)n``.

For ``k = 1..5`` and a sweep of ring sizes, run both recognizers of the
trade-off family on members and non-members.  Checks:

* both algorithms decide the language correctly;
* measured bits equal the paper's *exact* formulas, not just the class;
* the one-pass/two-pass ratio equals ``(k + 2^k - 1) / (2k + 1)``: one
  pass wins at ``k <= 2``, ties nowhere, and loses exponentially from
  ``k = 3`` on — the paper's "2^c n vs c n" separation in numbers.

Cell plan: one cell per (k, ring size) — both recognizers, both words;
the formula columns are recomputed at finalize (they are closed forms).
"""

from __future__ import annotations

import random

from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
    one_pass_bits,
    two_pass_bits,
)
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.regular import tradeoff_language
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(
    full=(16, 64, 256, 512),
    quick=(8, 16),
    long=(2048, 4096, 8192, 16384),
)


def _ks(profile: RunProfile) -> tuple[int, ...]:
    return (1, 2, 3) if profile else (1, 2, 3, 4, 5)


def _measure(params: dict, rng: random.Random) -> dict:
    """One (k, size): both recognizers on a member and a non-member."""
    k, n = params["k"], params["n"]
    language = tradeoff_language(k)
    one_pass = OnePassTradeoffRecognizer(language)
    two_pass = TwoPassTradeoffRecognizer(language)
    member = language.sample_member(n, rng)
    non_member = language.sample_non_member(n, rng)
    exact = True
    for word, expected in ((member, True), (non_member, False)):
        if word is None:
            continue
        one_trace = run_unidirectional(one_pass, word, trace="metrics")
        two_trace = run_unidirectional(two_pass, word, trace="metrics")
        if not (one_trace.decision == two_trace.decision == expected):
            exact = False
        if one_trace.total_bits != one_pass_bits(k, n):
            exact = False
        if two_trace.total_bits != two_pass_bits(k, n):
            exact = False
        if two_trace.pass_count() != 2 or one_trace.pass_count() != 1:
            exact = False
    return {"k": k, "n": n, "exact": exact}


TITLE = "Bits vs passes for regular languages (§7(5))"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-(k, size) cells."""
    return [
        Cell(
            exp_id="E11",
            key=f"k={k}/n={n}",
            fn=_measure,
            params={"k": k, "n": n},
            seed=cell_seed("E11", f"k={k}/n={n}"),
            # One-pass messages carry ~2^k-ish bits, so cost scales with
            # the formula itself, not just n.
            weight=float(one_pass_bits(k, n)),
        )
        for k in _ks(profile)
        for n in SWEEP.sizes(profile)
    ]


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Rows per (k, size); formula columns from the closed forms."""
    result = ExperimentResult(
        exp_id="E11",
        title=TITLE,
        claim="two passes cost (2k+1)n bits; one pass costs (k+2^k-1)n; "
        "the ratio grows like 2^k / 2k",
        columns=[
            "k",
            "n",
            "1-pass bits",
            "2-pass bits",
            "ratio",
            "winner",
            "exact",
        ],
    )
    all_ok = True
    for k in _ks(profile):
        for n in SWEEP.sizes(profile):
            record = records[f"k={k}/n={n}"]
            all_ok = all_ok and record["exact"]
            ratio = one_pass_bits(k, n) / two_pass_bits(k, n)
            result.rows.append(
                {
                    "k": k,
                    "n": n,
                    "1-pass bits": one_pass_bits(k, n),
                    "2-pass bits": two_pass_bits(k, n),
                    "ratio": round(ratio, 3),
                    "winner": "1-pass"
                    if ratio < 1
                    else ("tie" if ratio == 1 else "2-pass"),
                    "exact": record["exact"],
                }
            )
    result.conclusions = [
        "measured bits match the paper's formulas bit-for-bit at every (k, n)",
        "one pass wins at k = 1 and ties at k = 2; from k = 3 the extra "
        "pass saves an exponentially growing factor (ratio (k+2^k-1)/(2k+1))",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E11", plan=plan, finalize=finalize, title=TITLE
)
