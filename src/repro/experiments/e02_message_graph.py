"""E2 — Theorem 2: the message-graph dichotomy.

Finite side: for each regular language, build the Theorem 1 recognizer's
message graph, confirm it is finite, extract the DFA, and check language
equivalence with the reference automaton (Hopcroft-Karp).

Infinite side: the one-pass counting transducer's graph blows through every
vertex budget; the BFS-tree witness word of length ``n`` forces ``n``
pairwise-distinct messages whose total size is ``Theta(n log n)`` —
Corollary 1/2 in numbers.

Trace policy: distinct-message counting inspects every delivered payload, so this
experiment runs with the default ``trace="full"`` policy.

Cell plan: one cell per regular language (graph build + DFA extraction),
one per vertex budget, and one for the witness ring — the experiment has
no ring-size sweep, so its cells split along its independent workloads.
"""

from __future__ import annotations

import math
import random

from repro.automata.equivalence import distinguishing_word
from repro.bits import BitReader, Bits, encode_elias_gamma
from repro.core.message_graph import build_message_graph, extract_dfa, infinite_witness
from repro.core.regular_onepass import (
    DFARecognizer,
    OnePassTransducer,
    TransducerRingAlgorithm,
)
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Subtask,
    cell_seed,
    subtask_seed,
)
from repro.languages.regular import (
    mod_count_language,
    parity_language,
    substring_language,
)
from repro.ring.unidirectional import run_unidirectional

__all__ = ["run", "CountingTransducer"]


class CountingTransducer(OnePassTransducer):
    """The canonical infinite-message one-pass algorithm: pass a counter."""

    alphabet = ("a", "b")

    def initial_message(self, leader_letter: str) -> Bits:
        return encode_elias_gamma(1)

    def relay(self, letter: str, incoming: Bits) -> Bits:
        return encode_elias_gamma(BitReader(incoming).read_elias_gamma() + 1)

    def decide(self, leader_letter: str, final: Bits) -> bool:
        return True


_LANGUAGES = {
    "parity": parity_language,
    "mod-b-4-3": lambda: mod_count_language("b", 4, 3),
    "substring-aba": lambda: substring_language("aba"),
}


def _measure_language(params: dict, rng: random.Random) -> dict:
    """Finite side for one regular language: graph, extraction, equivalence."""
    language = _LANGUAGES[params["language"]]()
    recognizer = DFARecognizer(language.dfa, name=language.name)
    graph = build_message_graph(recognizer.transducer, max_vertices=10_000)
    extracted = extract_dfa(
        graph, recognizer.transducer, accept_empty=language.dfa.accepts("")
    )
    witness = distinguishing_word(extracted, language.dfa)
    return {
        "case": language.name,
        "finite": graph.is_finite(),
        "messages": graph.message_count,
        "witness": witness,
    }


def _measure_budget(params: dict, rng: random.Random) -> dict:
    """Infinite side: the counting transducer versus one vertex budget."""
    graph = build_message_graph(CountingTransducer(), max_vertices=params["budget"])
    return {
        "budget": params["budget"],
        "messages": graph.message_count,
        "truncated": graph.truncated,
    }


def _measure_witness_distinct(params: dict, rng: random.Random) -> dict:
    """Witness half 1: the all-distinct-messages count (full trace).

    Re-derives the witness word itself — :func:`infinite_witness` stops
    at depth ``length`` now, so the derivation is O(length), cheap
    enough to repeat per part instead of threading a word between
    subtasks.
    """
    word = infinite_witness(CountingTransducer(), params["length"])
    trace = run_unidirectional(
        TransducerRingAlgorithm(CountingTransducer()), word
    )
    return {"distinct": len({event.bits for event in trace.events})}


def _measure_witness_bits(params: dict, rng: random.Random) -> dict:
    """Witness half 2: the Omega(n log n) bit total (metrics trace)."""
    word = infinite_witness(CountingTransducer(), params["length"])
    trace = run_unidirectional(
        TransducerRingAlgorithm(CountingTransducer()), word, trace="metrics"
    )
    return {"total_bits": trace.total_bits}


_WITNESS_PARTS = (
    ("distinct", _measure_witness_distinct, 0.5),
    ("bits", _measure_witness_bits, 0.5),
)


def _split_witness(cell: Cell) -> "list[Subtask]":
    """Decompose the witness cell into its two independent ring runs."""
    return [
        Subtask(
            exp_id=cell.exp_id,
            cell_key=cell.key,
            part=part,
            fn=fn,
            params=dict(cell.params),
            seed=subtask_seed(cell.exp_id, cell.key, part),
            weight=cell.weight * share,
        )
        for part, fn, share in _WITNESS_PARTS
    ]


def _fold_witness(params: dict, parts: dict) -> dict:
    """Reassemble the witness record from its two part records."""
    return {
        "length": params["length"],
        "distinct": parts["distinct"]["distinct"],
        "total_bits": parts["bits"]["total_bits"],
    }


def _measure_witness(params: dict, rng: random.Random) -> dict:
    """The Corollary 1/2 witness ring: all-distinct messages, n log n bits.

    Runs the same part functions the divided path schedules (no
    randomness is involved, but the shared code path is what makes
    fold(subtasks) == monolithic structural rather than checked).
    """
    parts = {
        part: fn(dict(params), random.Random(subtask_seed("E2", "witness", part)))
        for part, fn, _share in _WITNESS_PARTS
    }
    return _fold_witness(dict(params), parts)


def _budgets(profile: RunProfile) -> tuple[int, ...]:
    return (32, 128) if profile else (32, 128, 512, 2048)


TITLE = "Message graphs: finite <=> regular (Theorem 2)"


def plan(profile: RunProfile) -> list[Cell]:
    """Per-language, per-budget, and witness cells (no size sweep)."""
    quick = bool(profile)
    cells = [
        Cell(
            exp_id="E2",
            key=f"lang={name}",
            fn=_measure_language,
            params={"language": name},
            seed=cell_seed("E2", f"lang={name}"),
        )
        for name in _LANGUAGES
    ]
    cells.extend(
        Cell(
            exp_id="E2",
            key=f"budget={budget}",
            fn=_measure_budget,
            params={"budget": budget},
            seed=cell_seed("E2", f"budget={budget}"),
            weight=budget,
        )
        for budget in _budgets(profile)
    )
    witness_length = 24 if quick else 96
    cells.append(
        Cell(
            exp_id="E2",
            key="witness",
            fn=_measure_witness,
            params={"length": witness_length},
            seed=cell_seed("E2", "witness"),
            # infinite_witness now early-stops its BFS at depth=length
            # (identical word, see build_message_graph), so the cell
            # costs two short ring runs, not a million-vertex BFS — the
            # weight hint is back to the sweep knob.  The 15 s ceiling
            # that pinned the quick fleet's shard speedup to ~1.05x
            # (PERFORMANCE.md layers 8-10) is gone with it.
            weight=float(witness_length),
            split=_split_witness,
            fold=_fold_witness,
        )
    )
    return cells


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Assemble the dichotomy table from the three cell families."""
    result = ExperimentResult(
        exp_id="E2",
        title=TITLE,
        claim="O(n) one-pass => finite graph => extracted DFA == language; "
        "infinite graph => Omega(n log n) witness",
        columns=["case", "graph", "messages", "check", "ok"],
    )
    all_ok = True
    for name in _LANGUAGES:
        record = records[f"lang={name}"]
        ok = record["finite"] and record["witness"] is None
        all_ok = all_ok and ok
        result.rows.append(
            {
                "case": record["case"],
                "graph": "finite",
                "messages": record["messages"],
                "check": "extracted DFA equivalent"
                if record["witness"] is None
                else f"differs on {record['witness']!r}",
                "ok": ok,
            }
        )
    for budget in _budgets(profile):
        record = records[f"budget={budget}"]
        ok = record["truncated"]
        all_ok = all_ok and ok
        result.rows.append(
            {
                "case": "counting",
                "graph": f"budget {budget}",
                "messages": record["messages"],
                "check": "truncated (grows without bound)"
                if record["truncated"]
                else "UNEXPECTEDLY finite",
                "ok": ok,
            }
        )
    witness = records["witness"]
    nlogn = witness["length"] * math.log2(witness["length"])
    ok = (
        witness["distinct"] == witness["length"]
        and witness["total_bits"] >= nlogn
    )
    all_ok = all_ok and ok
    result.rows.append(
        {
            "case": "counting witness",
            "graph": f"|w|={witness['length']}",
            "messages": witness["distinct"],
            "check": f"{witness['total_bits']} bits >= n log n = {nlogn:.0f}",
            "ok": ok,
        }
    )
    result.conclusions = [
        "finite message graphs reproduce their language exactly (DFA extraction)",
        "the counting transducer's graph exceeds every budget (infinite)",
        "its witness ring forces all-distinct messages totalling >= n log2 n bits",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E2", plan=plan, finalize=finalize, title=TITLE
)
