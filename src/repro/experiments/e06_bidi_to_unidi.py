"""E6 — Theorem 7: bidirectional ``O(n)`` compiles to unidirectional ``O(n)``.

The Theorem 6 recognizers for two regular languages go through the full
pipeline: stage-1 line embedding (decisions preserved, bits linear with
the +1-tag/tunnel overhead), then the stage-2 accepting-information-state
enumeration producing a genuine unidirectional ring algorithm.  Checks:

* compiled decisions equal the source algorithm's and the language's on an
  exhaustive short-word sweep *plus* rings well beyond the catalog horizon
  (the catalog really did stabilize);
* compiled messages have constant size (1 + catalog bitmap), so measured
  bits are linear — classified as ``n``;
* the pass count is bounded by the number of accepting information states,
  a constant of the algorithm.

Cell plan: one cell per language — each compilation (exhaustive sweep,
beyond-horizon rings, stage-1 embedding check) is an independent
pipeline producing one table row.
"""

from __future__ import annotations

import itertools
import random

from repro.analysis.growth import classify_growth
from repro.core.bidi_to_unidi import BidiToUnidiCompiler, LineEmbeddedAlgorithm
from repro.core.regular_bidirectional import BidirectionalDFARecognizer
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    cell_seed,
)
from repro.languages.regular import mod_count_language, parity_language
from repro.ring.bidirectional import run_bidirectional
from repro.ring.unidirectional import run_unidirectional

_LANGUAGES = {
    "parity": parity_language,
    "mod-a-3-0": lambda: mod_count_language("a", 3, 0),
}


def _measure(params: dict, rng: random.Random) -> dict:
    """Compile one language's Theorem 6 recognizer and sweep it."""
    language = _LANGUAGES[params["language"]]()
    source = BidirectionalDFARecognizer(language.dfa, name=language.name)
    compiler = BidiToUnidiCompiler(source, horizon=params["horizon"])
    equivalent = True
    ns, bits = [], []
    for length in range(2, params["exhaustive_len"] + 1):
        for letters in itertools.product(language.alphabet, repeat=length):
            word = "".join(letters)
            expected = run_bidirectional(source, word, trace="metrics").decision
            trace = run_unidirectional(compiler, word, trace="metrics")
            if not (trace.decision == expected == language.contains(word)):
                equivalent = False
    for n in params["large_sizes"]:
        word = "".join(rng.choice(language.alphabet) for _ in range(n))
        trace = run_unidirectional(compiler, word, trace="metrics")
        if trace.decision != language.contains(word):
            equivalent = False
        ns.append(n)
        bits.append(trace.total_bits)
    # Stage-1-only sanity: line embedding alone preserves decisions.
    embedding = LineEmbeddedAlgorithm(source)
    embedding_ok = True
    for length in (3, 5):
        for letters in itertools.product(language.alphabet, repeat=length):
            word = "".join(letters)
            if embedding.run_on_line(word).decision != language.contains(word):
                embedding_ok = False
    return {
        "language": language.name,
        "catalog": len(compiler.catalog),
        "bits_per_message": compiler.bits_per_message(),
        "ns": ns,
        "bits": bits,
        "equivalent": equivalent,
        "embedding_ok": embedding_ok,
    }


def _names(profile: RunProfile) -> list[str]:
    return ["parity"] if profile else ["parity", "mod-a-3-0"]


TITLE = "Bidirectional -> unidirectional compilation (Theorem 7)"


def plan(profile: RunProfile) -> list[Cell]:
    """One independent compilation cell per language."""
    quick = bool(profile)
    return [
        Cell(
            exp_id="E6",
            key=f"lang={name}",
            fn=_measure,
            params={
                "language": name,
                "horizon": 5 if quick else 6,
                "exhaustive_len": 5 if quick else 7,
                "large_sizes": [12, 18, 26] if quick else [16, 24, 40, 64],
            },
            seed=cell_seed("E6", f"lang={name}"),
        )
        for name in _names(profile)
    ]


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """One row per language, plus the fit over the beyond-horizon rings."""
    result = ExperimentResult(
        exp_id="E6",
        title=TITLE,
        claim="a bidirectional O(n) algorithm has an equivalent "
        "unidirectional O(n) algorithm (line embedding + accepting-"
        "information-state passes)",
        columns=[
            "language",
            "catalog",
            "bits/msg",
            "n_max",
            "bits(n_max)",
            "fit",
            "equivalent",
            "ok",
        ],
    )
    all_ok = True
    for name in _names(profile):
        record = records[f"lang={name}"]
        fit = classify_growth(record["ns"], record["bits"])
        ok = record["equivalent"] and fit.model.name == "n"
        all_ok = all_ok and ok and record["embedding_ok"]
        result.rows.append(
            {
                "language": record["language"],
                "catalog": record["catalog"],
                "bits/msg": record["bits_per_message"],
                "n_max": record["ns"][-1],
                "bits(n_max)": record["bits"][-1],
                "fit": fit.model.name,
                "equivalent": record["equivalent"],
                "ok": ok,
            }
        )
    result.conclusions = [
        "stage 1 (line embedding) preserved every decision",
        "stage 2 compiled algorithms agree with their sources on exhaustive "
        "short words and on rings beyond the catalog horizon",
        "compiled bits are linear in n with constant-size bitmap messages",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E6", plan=plan, finalize=finalize, title=TITLE
)
