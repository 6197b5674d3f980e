"""E5 — Theorem 5 machinery: token serialization and the ring->line map.

For each subject algorithm (regular recognizer, block counters, copy) over
a size sweep:

* serialize the execution to a token execution: payload order preserved,
  overhead ratio <= 3 (our algorithms are single-threaded, so the token
  never moves idle and the ratio is < 2 — the [TL] bound with room to
  spare; a synthetic *chaotic* broadcast algorithm is included to show a
  genuinely concurrent execution and its measured serialization cost);
* apply the Theorem 5 ring->line transformation: ratio <= 4, and the
  inverse transformation restores the original event sequence exactly
  (the proof's "no processor can tell" step).

Trace policy: the token serialization and the Theorem 5 line transformation replay
individual messages, so this experiment runs with the default
``trace="full"`` policy.  The metrics variants are cross-checked at every
size: ``serialize_to_token(..., "metrics")`` and
``ring_to_line(..., trace_policy="metrics")`` must reproduce the full
variants' accounting exactly — that is the contract large-n line sweeps
rely on when they skip materializing transformed events.

Cell plan: one cell per (subject algorithm, ring size); every check is
computed inside the cell (the full traces never leave it) and the record
is one table row.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.bits import Bits
from repro.core.counters import BlockCounterRecognizer
from repro.core.comparison import CopyRecognizer
from repro.core.regular_bidirectional import BidirectionalDFARecognizer
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Sweep,
    cell_seed,
)
from repro.languages.nonregular import AnBnCn, CopyLanguage
from repro.languages.regular import parity_language
from repro.ring.bidirectional import run_bidirectional
from repro.ring.line import restore_from_line, ring_to_line
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.token import serialize_to_token
from repro.ring.unidirectional import run_unidirectional

SWEEP = Sweep(full=(4, 8, 16, 32, 64, 128), quick=(4, 8, 16))

_CASES = ("thm6-parity (bidi)", "counters-012", "copy-wcw", "chaotic-broadcast")


class _BroadcastLeader(Processor):
    """Chaotic exhibit: the leader floods both directions; followers ack."""

    def __init__(self, letter: str) -> None:
        super().__init__(letter, is_leader=True)
        self._acks = 0

    def on_start(self) -> Iterable[Send]:
        return [Send.cw(Bits("101")), Send.ccw(Bits("110"))]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self._acks += 1
        if self._acks == 2:
            self.decide(True)
        return ()


class _BroadcastFollower(Processor):
    """Forward the flood in its travel direction."""

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        return [Send(arrived_from.opposite(), message)]


class ChaoticBroadcast(RingAlgorithm):
    """Two concurrent waves (CW and CCW) — max_in_flight is 2, not 1."""

    name = "chaotic-broadcast"

    def __init__(self) -> None:
        super().__init__("ab")

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _BroadcastLeader(letter)
        return _BroadcastFollower(letter, is_leader=False)


def _subject(case: str, n: int, rng: random.Random):
    """Build one case's algorithm, worst-case word, and runner."""
    parity = parity_language()

    def parity_word() -> str:
        return parity.sample_member(n, rng) or "a" * n

    if case == "thm6-parity (bidi)":
        return BidirectionalDFARecognizer(parity.dfa), parity_word(), run_bidirectional
    if case == "counters-012":
        k = max(n // 3, 1)
        word = "0" * k + "1" * k + "2" * k
        return BlockCounterRecognizer("012"), word, run_unidirectional
    if case == "copy-wcw":
        word = CopyLanguage().sample_member(n if n % 2 else n + 1, rng)
        assert word is not None
        return CopyRecognizer(), word, run_unidirectional
    return ChaoticBroadcast(), parity_word(), run_bidirectional


def _measure(params: dict, rng: random.Random) -> dict:
    """One (algorithm, size): serialization + line-transformation checks."""
    algorithm, word, runner = _subject(params["case"], params["n"], rng)
    trace = runner(algorithm, word)
    token = serialize_to_token(trace)
    payload_match = token.preserves_payloads()
    token_stats = serialize_to_token(trace, trace_policy="metrics")
    line = ring_to_line(trace)
    line_stats = ring_to_line(trace, trace_policy="metrics")
    metrics_match = (
        line.stats() == line_stats
        and token_stats.total_bits == token.total_bits
        and token_stats.move_bits == token.move_bits
        and token_stats.carry_bits == token.carry_bits
    )
    restored = restore_from_line(line)
    restored_match = [
        (event.sender, event.receiver, event.direction, event.bits)
        for event in restored
    ] == [
        (event.sender, event.receiver, event.direction, event.bits)
        for event in trace.events
    ]
    return {
        "case": params["case"],
        "word_len": len(word),
        "bits": trace.total_bits,
        "in_flight": trace.max_in_flight,
        "token_ratio": token.overhead_ratio,
        "line_ratio": line.ratio,
        "restored": restored_match,
        "ok": (
            payload_match
            and restored_match
            and metrics_match
            and token.overhead_ratio <= 3.0
            and line.ratio <= 4.0
        ),
    }


TITLE = "Token serialization and ring->line transformation (Theorem 5)"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-(algorithm, size) cells."""
    return [
        Cell(
            exp_id="E5",
            key=f"case={case}/n={n}",
            fn=_measure,
            params={"case": case, "n": n},
            seed=cell_seed("E5", f"case={case}/n={n}"),
            weight=n,
        )
        for case in _CASES
        for n in SWEEP.sizes(profile)
    ]


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """One row per (algorithm, size), in plan order."""
    result = ExperimentResult(
        exp_id="E5",
        title=TITLE,
        claim="token overhead <= 3x; line transformation <= 4x and invertible",
        columns=[
            "algorithm",
            "n",
            "bits",
            "in_flight",
            "token_ratio",
            "line_ratio",
            "restored",
            "ok",
        ],
    )
    all_ok = True
    for case in _CASES:
        for n in SWEEP.sizes(profile):
            record = records[f"case={case}/n={n}"]
            all_ok = all_ok and record["ok"]
            result.rows.append(
                {
                    "algorithm": record["case"],
                    "n": record["word_len"],
                    "bits": record["bits"],
                    "in_flight": record["in_flight"],
                    "token_ratio": round(record["token_ratio"], 3),
                    "line_ratio": round(record["line_ratio"], 3),
                    "restored": record["restored"],
                    "ok": record["ok"],
                }
            )
    result.conclusions = [
        "token serialization preserved payload order everywhere, ratio <= 3 "
        "(sequential algorithms: never > 2; chaotic broadcast also within 3)",
        "the ring->line transformation stayed within the proof's 4x bound "
        "and the inverse transformation restored every original execution",
        "metrics-mode serialization and line transformation matched the "
        "full variants' accounting at every size",
    ]
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E5", plan=plan, finalize=finalize, title=TITLE
)
