"""Whole-pass walks against the steps they fold.

A relay program may offer ``pass_walk(width)`` (see
:class:`~repro.ring.processor.RelayProgram`): a fold of the memoryless
followers over the packed int of a pass's message, which
:func:`repro.ring.delivery.run_relay` takes instead of stepping the
pass.  The cases here hold each walk to the step it replaces:

* the table walks (Theorem 1's DFA relay, the §7(5) two-pass count and
  flip tables) exhaustively, every letter against every value of the
  width, one follower at a time: the walk's answer is the packed value
  the step returns, and None exactly where the step raises;
* a walked run against the same program with its walk taken away, on
  random words and random total DFAs: every ``TraceStats`` field and
  every message the leader received;
* the errors a walk must not hide: a cap inside a pass, and a start
  message of the wrong width or naming no state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.bits import Bits, encode_fixed
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
)
from repro.core.regular_onepass import (
    DFARecognizer,
    TransducerRingAlgorithm,
    _DFATransducer,
)
from repro.errors import DecodeError, ProtocolError, RingError
from repro.experiments.e01_regular_linear import _languages
from repro.languages.regular import tradeoff_language
from repro.ring.delivery import run_relay
from repro.ring.processor import table_walk
from repro.ring.schedulers import RandomScheduler

from conftest import random_dfa

STAT_FIELDS = (
    "word",
    "leader",
    "total_bits",
    "message_count",
    "link_bits",
    "sent_counts",
    "pass_bits",
    "max_in_flight",
    "decision",
    "engine",
)
CAP = 2_000_000


def _step_answer(step, letter: str, value: int, width: int):
    """The packed int one follower sends, or None where its step raises."""
    try:
        _, out = step(letter, None, encode_fixed(value, width))
    except Exception:
        return None
    assert out._length == width
    return out._value


def _assert_walk_is_the_step(program, width: int, alphabet) -> None:
    walk = program.pass_walk(width)
    assert walk is not None
    for value in range(1 << width):
        assert walk("", value) == value  # no follower, no change
    for letter in alphabet:
        for value in range(1 << width):
            expected = _step_answer(program.step, letter, value, width)
            assert walk(letter, value) == expected, (letter, value)
    # A letter outside the alphabet has no row.
    assert walk("?", 0) is None


class TestTables:
    @pytest.mark.parametrize("index", range(6))
    def test_e1_minimal_dfas(self, index):
        algorithm = DFARecognizer(_languages()[index].dfa)
        program = algorithm.relay_program()
        width = algorithm.bits_per_message
        _assert_walk_is_the_step(program, width, algorithm.alphabet)
        assert program.pass_walk(width + 1) is None

    def test_padding_indices_answer_none(self):
        # Three states in two bits: index 3 names no state, and the step
        # raises for it, so the walk must answer None, even mid-word.
        dfa = random_dfa(random.Random(2), 3)
        program = DFARecognizer(dfa, minimal=False).relay_program()
        walk = program.pass_walk(2)
        assert walk("a", 3) is None and walk("ab", 3) is None

    @pytest.mark.parametrize("k", range(1, 6))
    def test_two_pass_count_and_flip_tables(self, k):
        algorithm = TwoPassTradeoffRecognizer(tradeoff_language(k))
        program = algorithm.relay_program()
        for width in (k, k + 1):
            _assert_walk_is_the_step(program, width, algorithm.alphabet)
        assert program.pass_walk(k + 2) is None

    @pytest.mark.parametrize("k", range(1, 4))
    def test_one_pass_loop(self, k):
        # Its message space is 2**(k + 2**k - 1) wide: exhaustive up to k=3.
        algorithm = OnePassTradeoffRecognizer(tradeoff_language(k))
        program = algorithm.relay_program()
        width = k + (1 << k) - 1
        _assert_walk_is_the_step(program, width, algorithm.alphabet)
        assert program.pass_walk(width - 1) is None

    def test_table_walk_composes_rows(self):
        walk = table_walk({"a": [1, 2, 0], "b": [0, None, 2]})
        assert walk("", 5) == 5
        assert walk("aab", 0) == 2
        assert walk("ab", 0) is None  # 1 then b's None entry
        assert walk("aa", 2) == 1
        assert walk("b", 7) is None  # no entry
        assert walk("ac", 0) is None  # no row


def _recording(program, log: list):
    """``program`` with every message its leader receives appended to ``log``."""
    pass_end = program.pass_end

    def recorded(letter, memory, incoming):
        log.append(incoming)
        return pass_end(letter, memory, incoming)

    return program._replace(pass_end=recorded)


def _run(program, word, max_messages=CAP, scheduler=None):
    log: list = []
    try:
        stats = run_relay(
            _recording(program, log), word, max_messages, "walked", scheduler
        )
    except Exception as error:  # the wording is the contract
        return ("raised", type(error), str(error)), log
    return tuple(getattr(stats, field) for field in STAT_FIELDS), log


def _assert_walk_matches_steps(program, word, max_messages=CAP):
    """The walked run equals the stepped run; returns the walked outcome."""
    steps = 0
    step = program.step

    def counted(letter, memory, incoming):
        nonlocal steps
        steps += 1
        return step(letter, memory, incoming)

    walked = _run(program._replace(step=counted), word, max_messages)
    walked_steps = steps
    stepped = _run(program._replace(pass_walk=None), word, max_messages)
    assert walked == stepped
    return walked[0], walked_steps


class TestWalkedRuns:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_tradeoff_recognizers(self, k, seed, n):
        language = tradeoff_language(k)
        rng = random.Random(seed)
        word = "".join(rng.choice(language.alphabet) for _ in range(n))
        for algorithm in (
            OnePassTradeoffRecognizer(language),
            TwoPassTradeoffRecognizer(language),
        ):
            outcome, steps = _assert_walk_matches_steps(
                algorithm.relay_program(), word
            )
            assert outcome[STAT_FIELDS.index("decision")] is (
                language.contains(word)
            )
            assert steps == 0  # every pass was walked

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_total_dfas(self, seed, states, n):
        rng = random.Random(seed)
        dfa = random_dfa(rng, states, "abc")
        word = "".join(rng.choice("abc") for _ in range(n))
        algorithm = DFARecognizer(dfa, minimal=rng.random() < 0.5)
        outcome, steps = _assert_walk_matches_steps(
            algorithm.relay_program(), word
        )
        assert outcome[STAT_FIELDS.index("decision")] is dfa.accepts(word)
        assert steps == 0

    def test_a_none_answer_steps_the_pass(self):
        # A walk that gives up on one pass: that pass is stepped from its
        # first follower, the other is walked, and the counters agree.
        language = tradeoff_language(2)
        program = TwoPassTradeoffRecognizer(language).relay_program()
        full = program.pass_walk

        def count_pass_unwalked(width):
            return None if width == 2 else full(width)

        word = language.sample_member(9, random.Random(4))
        outcome, steps = _assert_walk_matches_steps(
            program._replace(pass_walk=count_pass_unwalked), word
        )
        assert outcome[0] == word and steps == 8


class TestErrors:
    @pytest.mark.parametrize("cap", [0, 1, 4, 5, 6, 9])
    def test_cap_inside_a_pass(self, cap):
        language = tradeoff_language(2)
        program = TwoPassTradeoffRecognizer(language).relay_program()
        word = language.sample_member(5, random.Random(3))
        outcome, _ = _assert_walk_matches_steps(program, word, cap)
        assert outcome == (
            "raised",
            RingError,
            f"exceeded {cap} messages on n=5; algorithm appears to diverge",
        )

    def test_cap_inside_a_walked_one_pass_run(self):
        program = DFARecognizer(random_dfa(random.Random(5), 4)).relay_program()
        outcome, _ = _assert_walk_matches_steps(program, "abab", 3)
        assert outcome[:2] == ("raised", RingError)
        outcome, steps = _assert_walk_matches_steps(program, "abab", 4)
        assert outcome[0] == "abab" and steps == 0

    @staticmethod
    def _started_with(start_message: str):
        """Theorem 1's recognizer for count(a) mod 3 (two-bit messages)."""
        dfa = DFA(
            states=frozenset({0, 1, 2}),
            alphabet=("a", "b"),
            transitions={
                (state, letter): (state + (letter == "a")) % 3
                for state in range(3)
                for letter in "ab"
            },
            start=0,
            accepting=frozenset({0}),
        )

        class Started(_DFATransducer):
            def initial_message(self, leader_letter):
                return Bits(start_message)

        return TransducerRingAlgorithm(Started(dfa)).relay_program()

    @pytest.mark.parametrize(
        "start, error, wording",
        [
            ("1", DecodeError, "expected 2 bits, got 1"),
            ("011", DecodeError, "expected 2 bits, got 3"),
            ("11", ProtocolError, "message decodes to unknown state 3"),
        ],
    )
    @pytest.mark.parametrize("word", ["ab", "abba"])
    def test_malformed_start_message(self, start, error, wording, word):
        outcome, _ = _assert_walk_matches_steps(
            self._started_with(start), word
        )
        assert outcome == ("raised", error, wording)

    def test_malformed_start_message_on_a_single_node(self):
        # No follower: the walk answers the start message itself, and the
        # leader's decode raises as it does on the sweep.
        outcome, _ = _assert_walk_matches_steps(self._started_with("11"), "a")
        assert outcome == (
            "raised", ProtocolError, "message decodes to unknown state 3"
        )


class TestScheduledWalk:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_scheduler_state(self, seed, k, n):
        # The walked run asks in bulk, the stepped run one ask at a time.
        language = tradeoff_language(k)
        rng = random.Random(seed)
        word = "".join(rng.choice(language.alphabet) for _ in range(n))
        program = TwoPassTradeoffRecognizer(language).relay_program()
        walked, stepped = RandomScheduler(seed), RandomScheduler(seed)
        assert _run(program, word, CAP, walked) == _run(
            program._replace(pass_walk=None), word, CAP, stepped
        )
        assert walked._rng.getstate() == stepped._rng.getstate()
