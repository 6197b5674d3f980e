"""The relay walk against the engines it replaces.

A ``trace="metrics"`` run of an algorithm with a relay program
(:meth:`~repro.ring.processor.RingAlgorithm.relay_program`) walks the
word (:func:`repro.ring.delivery.run_relay`), on either ring; the same
algorithm's leader/follower processors are its oracle — on the sweep
for the unidirectional ring, and on the sweep or the chooser loop (by
scheduler) for the bidirectional one.  Every case here runs both and
compares the outcome: the :class:`~repro.ring.trace.TraceStats`
counters field by field and the decision, or the exception's type and
wording.  The cases cover random total DFAs, random multipass
algorithms with per-node memory, the message cap at every point of a
run, a step that raises mid-pass, non-``Bits`` messages, a leader that
never decides, n = 1 and the §7(5) one-pass codec's errors.  On the
bidirectional ring they also compare the scheduler's state after the
run (RNG state, counter, every candidate list it was shown), and
Theorem 1's DFA relay table is checked against ``DFA.step``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.bits import Bits, encode_fixed
from repro.core.multipass import MultipassAlgorithm, MultipassRingAlgorithm
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
    _OnePassTradeoff,
)
from repro.core.regular_onepass import (
    DFARecognizer,
    OnePassTransducer,
    TransducerRingAlgorithm,
)
from repro.errors import AutomatonError, DecodeError, ProtocolError, RingError
from repro.experiments.e01_regular_linear import _languages
from repro.languages.regular import tradeoff_language
from repro.ring.bidirectional import BidirectionalRing, run_bidirectional
from repro.ring.delivery import execute
from repro.ring.schedulers import (
    AdversarialScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
    Scheduler,
)
from repro.ring.unidirectional import UnidirectionalRing, run_unidirectional

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
)
CAP = 2_000_000


def _walk(algorithm, word, max_messages=CAP):
    stats = run_unidirectional(algorithm, word, max_messages, trace="metrics")
    assert stats.engine == "walk"
    return stats


def _sweep(algorithm, word, max_messages=CAP):
    """The same algorithm through its processors on the sweep."""
    processors = UnidirectionalRing(algorithm, word).processors
    stats = execute(
        processors, word, 0, None, max_messages, "metrics", algorithm.name,
        uni=True,
    )
    assert stats.engine == "sweep"
    return stats


def _outcome(run, algorithm, word, max_messages=CAP):
    try:
        stats = run(algorithm, word, max_messages)
    except Exception as error:  # the wording is the contract
        return ("raised", type(error), str(error))
    return ("ok",) + tuple(getattr(stats, field) for field in STAT_FIELDS)


def _assert_same(algorithm, word, max_messages=CAP):
    walked = _outcome(_walk, algorithm, word, max_messages)
    swept = _outcome(_sweep, algorithm, word, max_messages)
    assert walked == swept
    return walked


class _RandomMultipass(MultipassAlgorithm):
    """A random multipass algorithm over a pool of variable-length messages.

    Each follower keeps a list of the message indices it has seen (a
    fresh list per node, mutated in place), and its reply depends on
    its letter, the incoming message and that memory; the leader counts
    passes and decides from a table after the last one.
    """

    def __init__(self, seed: int, passes: int, alphabet: str = "ab") -> None:
        super().__init__(alphabet, passes)
        rng = random.Random(seed)
        self.name = f"random-multipass[{seed}]"
        self._pool = [
            encode_fixed(rng.randrange(1 << width), width)
            for width in (1, 2, 2, 3, 4, 5)
        ]
        self._pool = list(dict.fromkeys(self._pool))
        size = len(self._pool)
        self._index = {bits: i for i, bits in enumerate(self._pool)}
        self._first = {letter: rng.randrange(size) for letter in alphabet}
        self._relay = {
            (letter, index, seen, total): rng.randrange(size)
            for letter in alphabet
            for index in range(size)
            for seen in range(passes)
            for total in range(2)
        }
        self._next = {
            (letter, index, done): rng.randrange(size)
            for letter in alphabet
            for index in range(size)
            for done in range(1, passes)
        }
        self._accept = {
            (letter, index): rng.random() < 0.5
            for letter in alphabet
            for index in range(size)
        }

    def follower_initial_memory(self) -> list:
        return []

    def leader_start(self, letter):
        return 1, self._pool[self._first[letter]]

    def follower_step(self, letter, memory, incoming):
        index = self._index[incoming]
        out = self._relay[(letter, index, len(memory), sum(memory) % 2)]
        memory.append(index)
        return memory, self._pool[out]

    def leader_pass_end(self, letter, memory, incoming):
        index = self._index[incoming]
        if memory == self.passes:
            return memory, None, self._accept[(letter, index)]
        return memory + 1, self._pool[self._next[(letter, index, memory)]], None


class TestRandomAlgorithms:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dfa(self, seed, states, n):
        rng = random.Random(seed)
        dfa = random_dfa(rng, states, "abc")
        word = "".join(rng.choice("abc") for _ in range(n))
        algorithm = DFARecognizer(dfa, minimal=rng.random() < 0.5)
        outcome = _assert_same(algorithm, word)
        assert outcome[0] == "ok"
        assert _walk(algorithm, word).decision == dfa.accepts(word)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_multipass(self, seed, passes, n):
        rng = random.Random(seed)
        algorithm = MultipassRingAlgorithm(_RandomMultipass(seed, passes))
        word = "".join(rng.choice("ab") for _ in range(n))
        outcome = _assert_same(algorithm, word)
        assert outcome[0] == "ok"
        stats = _walk(algorithm, word)
        assert stats.pass_count() == passes
        assert stats.sent_counts == [passes] * n

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_tradeoff_recognizers(self, k, n):
        language = tradeoff_language(k)
        rng = random.Random(k * 100 + n)
        for word in (
            language.sample_member(n, rng),
            language.sample_non_member(n, rng),
        ):
            if word is None:
                continue
            for algorithm in (
                OnePassTradeoffRecognizer(language),
                TwoPassTradeoffRecognizer(language),
            ):
                outcome = _assert_same(algorithm, word)
                assert outcome[STAT_FIELDS.index("decision") + 1] is (
                    language.contains(word)
                )


class TestSizeOne:
    def test_counters(self):
        language = tradeoff_language(2)
        for algorithm in (
            DFARecognizer(random_dfa(random.Random(1), 3)),
            MultipassRingAlgorithm(_RandomMultipass(7, 3)),
            OnePassTradeoffRecognizer(language),
            TwoPassTradeoffRecognizer(language),
        ):
            stats = _walk(algorithm, "a" if "a" in algorithm.alphabet else "0")
            passes = stats.pass_count()
            assert stats.message_count == passes
            assert stats.sent_counts == [passes]
            assert stats.link_bits == [stats.total_bits]
            assert stats.max_in_flight == 1
            _assert_same(algorithm, "a" if "a" in algorithm.alphabet else "0")


class TestMessageCap:
    def test_every_cap_point(self):
        language = tradeoff_language(2)
        algorithm = TwoPassTradeoffRecognizer(language)
        word = language.sample_member(5, random.Random(3))
        messages = _walk(algorithm, word).message_count
        assert messages == 10
        for cap in range(messages + 2):
            _assert_same(algorithm, word, cap)
        assert _outcome(_walk, algorithm, word, messages)[0] == "ok"
        raised = _outcome(_walk, algorithm, word, messages - 1)
        assert raised == (
            "raised",
            RingError,
            f"exceeded {messages - 1} messages on n=5; algorithm appears to diverge",
        )

    def test_cap_on_a_one_pass_run(self):
        algorithm = DFARecognizer(random_dfa(random.Random(5), 4))
        for cap in range(6):
            _assert_same(algorithm, "abab", cap)
        assert _outcome(_walk, algorithm, "abab", 4)[0] == "ok"
        assert _outcome(_walk, algorithm, "abab", 3)[1] is RingError


class _Exploding(_RandomMultipass):
    """Raises at the follower holding ``x`` on the second pass."""

    def __init__(self) -> None:
        super().__init__(11, 3, alphabet="abx")

    def follower_step(self, letter, memory, incoming):
        if letter == "x" and len(memory) == 1:
            raise ProtocolError(f"step failed after {len(memory)} pass")
        return super().follower_step(letter, memory, incoming)


class TestStepErrors:
    def test_step_error_before_the_cap_point_wins(self):
        algorithm = MultipassRingAlgorithm(_Exploding())
        word = "abaxab"
        # Pass 2 reaches p_3 (the x) at delivery 6 + 3 = 9.
        outcomes = {cap: _assert_same(algorithm, word, cap) for cap in range(13)}
        for cap in range(9):
            assert outcomes[cap][1] is RingError
        for cap in range(9, 13):
            assert outcomes[cap] == (
                "raised", ProtocolError, "step failed after 1 pass"
            )

    @pytest.mark.parametrize(
        "payload, outcome",
        [("01", "ok"), ([1, 1, 0], "ok"), ("012", "raised")],
    )
    def test_non_bits_messages_are_coerced(self, payload, outcome):
        class Loose(_RandomMultipass):
            """Sends ``payload`` from every ``b``; reads any message."""

            def _known(self, incoming):
                return incoming if incoming in self._index else self._pool[0]

            def leader_start(self, letter):
                memory, first = super().leader_start(letter)
                return memory, payload if letter == "b" else first

            def follower_step(self, letter, memory, incoming):
                memory, out = super().follower_step(
                    letter, memory, self._known(incoming)
                )
                return memory, payload if letter == "b" else out

            def leader_pass_end(self, letter, memory, incoming):
                return super().leader_pass_end(
                    letter, memory, self._known(incoming)
                )

        algorithm = MultipassRingAlgorithm(Loose(5, 2))
        for word in ("abba", "ab", "ba", "b"):
            assert _assert_same(algorithm, word)[0] == outcome

    def test_leader_that_neither_continues_nor_decides(self):
        class Mute(_RandomMultipass):
            def leader_pass_end(self, letter, memory, incoming):
                return memory, None, None

        algorithm = MultipassRingAlgorithm(Mute(3, 2))
        assert _assert_same(algorithm, "abab") == (
            "raised",
            ProtocolError,
            "leader_pass_end returned neither message nor decision",
        )

    def test_transducer_that_never_decides(self):
        class Undecided(OnePassTransducer):
            alphabet = ("a", "b")

            def initial_message(self, leader_letter):
                return Bits("1")

            def relay(self, letter, incoming):
                return incoming

            def decide(self, leader_letter, final):
                return None

        algorithm = TransducerRingAlgorithm(Undecided(), name="undecided")
        assert _assert_same(algorithm, "aba") == (
            "raised",
            ProtocolError,
            "execution of 'undecided' on 'aba' quiesced without a leader decision",
        )


class TestOnePassCodecErrors:
    # k = 3: a one-pass message is 3 count bits + 7 parities = 10 bits.
    @pytest.mark.parametrize(
        "length, wording",
        [
            (0, "attempt to read 3 bits with only 0 left"),
            (2, "attempt to read 3 bits with only 2 left"),
            (5, "attempt to read past the end of the message"),
            (12, "2 unread bits at end of message"),
        ],
    )
    @pytest.mark.parametrize("word", ["0", "01", "0123"])
    def test_malformed_message_through_the_adapter(self, length, wording, word):
        class Malformed(_OnePassTradeoff):
            def initial_message(self, leader_letter):
                return Bits.zeros(length)

        language = tradeoff_language(3)
        algorithm = TransducerRingAlgorithm(Malformed(language))
        assert _assert_same(algorithm, word) == ("raised", DecodeError, wording)



class _Counting(Scheduler):
    """FIFO that records every candidate list it is shown."""

    def __init__(self) -> None:
        self.seen: list[list] = []

    def choose(self, candidates):
        self.seen.append(list(candidates))
        return 0


class _Fixed(Scheduler):
    """Always returns ``index``, in range or not."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.calls = 0

    def choose(self, candidates):
        self.calls += 1
        return self.index


SCHEDULERS = {
    "fifo": lambda seed: FifoScheduler(),
    "lifo": lambda seed: LifoScheduler(),
    "random": RandomScheduler,
    "adversarial": lambda seed: AdversarialScheduler(stride=seed % 5 + 1),
    "counting": lambda seed: _Counting(),
}


def _scheduler_state(scheduler) -> tuple:
    rng = getattr(scheduler, "_rng", None)
    return (
        rng.getstate() if rng is not None else None,
        getattr(scheduler, "_counter", None),
        getattr(scheduler, "seen", None),
        getattr(scheduler, "calls", None),
    )


def _bidi_walk(algorithm, word, scheduler, max_messages):
    stats = run_bidirectional(
        algorithm, word, scheduler, max_messages, trace="metrics"
    )
    assert stats.engine == "walk"
    return stats


def _bidi_oracle(algorithm, word, scheduler, max_messages):
    """The processors under ``scheduler``: the sweep or the chooser loop."""
    processors = BidirectionalRing(algorithm, word).processors
    stats = execute(
        processors, word, 0, scheduler, max_messages, "metrics", algorithm.name
    )
    assert stats.engine == (
        "sweep" if scheduler.round_batchable else "chooser"
    )
    return stats


def _bidi_outcome(run, algorithm, word, scheduler, max_messages):
    try:
        stats = run(algorithm, word, scheduler, max_messages)
    except Exception as error:  # the wording is the contract
        result = ("raised", type(error), str(error))
    else:
        result = ("ok",) + tuple(getattr(stats, field) for field in STAT_FIELDS)
    return result, _scheduler_state(scheduler)


def _assert_same_bidi(algorithm, word, make_scheduler, max_messages=CAP):
    """Walk and oracle, each with a fresh scheduler from ``make_scheduler``."""
    walked = _bidi_outcome(
        _bidi_walk, algorithm, word, make_scheduler(), max_messages
    )
    oracle = _bidi_outcome(
        _bidi_oracle, algorithm, word, make_scheduler(), max_messages
    )
    assert walked == oracle
    return walked[0]


class TestBidirectionalWalk:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(sorted(SCHEDULERS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dfa(self, seed, states, n, kind):
        rng = random.Random(seed)
        dfa = random_dfa(rng, states, "abc")
        word = "".join(rng.choice("abc") for _ in range(n))
        algorithm = DFARecognizer(dfa, minimal=rng.random() < 0.5)
        outcome = _assert_same_bidi(
            algorithm, word, lambda: SCHEDULERS[kind](seed)
        )
        assert outcome[0] == "ok"
        assert outcome[STAT_FIELDS.index("decision") + 1] == dfa.accepts(word)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(sorted(SCHEDULERS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_multipass(self, seed, passes, n, kind):
        rng = random.Random(seed)
        algorithm = MultipassRingAlgorithm(_RandomMultipass(seed, passes))
        word = "".join(rng.choice("ab") for _ in range(n))
        outcome = _assert_same_bidi(
            algorithm, word, lambda: SCHEDULERS[kind](seed)
        )
        assert outcome[0] == "ok"

    def test_candidates_are_the_chooser_loops(self):
        scheduler = _Counting()
        algorithm = MultipassRingAlgorithm(_RandomMultipass(2, 2))
        _bidi_walk(algorithm, "abb", scheduler, CAP)
        # Two passes of CW codes 2*sender + 1: p_0 -> p_1 -> p_2 -> p_0.
        assert scheduler.seen == [[1], [3], [5]] * 2

    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_every_cap_point(self, kind):
        language = tradeoff_language(2)
        algorithm = TwoPassTradeoffRecognizer(language)
        word = language.sample_member(5, random.Random(3))
        for cap in range(12):
            outcome = _assert_same_bidi(
                algorithm, word, lambda: SCHEDULERS[kind](cap), cap
            )
            assert outcome[0] == ("ok" if cap >= 10 else "raised")

    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_step_error_before_the_cap_point_wins(self, kind):
        algorithm = MultipassRingAlgorithm(_Exploding())
        for cap in range(13):
            outcome = _assert_same_bidi(
                algorithm, "abaxab", lambda: SCHEDULERS[kind](cap), cap
            )
            assert outcome[1] is (RingError if cap < 9 else ProtocolError)

    @pytest.mark.parametrize("index", [1, -1, 2])
    @pytest.mark.parametrize("word", ["a", "ab", "abba"])
    def test_out_of_range_choice(self, index, word):
        algorithm = DFARecognizer(random_dfa(random.Random(4), 3))
        for cap in (CAP, 0, 1):
            outcome = _assert_same_bidi(
                algorithm, word, lambda: _Fixed(index), cap
            )
            if cap:
                assert outcome == (
                    "raised",
                    RingError,
                    f"scheduler chose index {index} out of 1 candidates",
                )

    def test_reused_scheduler_continues_where_the_chooser_left_it(self):
        algorithm = DFARecognizer(random_dfa(random.Random(6), 4))
        walked, oracle = RandomScheduler(9), RandomScheduler(9)
        for word in ("abab", "b", "aabba"):
            _bidi_walk(algorithm, word, walked, CAP)
            _bidi_oracle(algorithm, word, oracle, CAP)
            assert walked._rng.getstate() == oracle._rng.getstate()
        assert walked.choose(range(7)) == oracle.choose(range(7))


def _mod3() -> DFA:
    """count(a) mod 3 == 0: minimal with three states, so width 2."""
    return DFA(
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


class TestDFARelayTable:
    @pytest.mark.parametrize("index", range(6))
    def test_table_agrees_with_dfa_step(self, index):
        language = _languages()[index]
        transducer = DFARecognizer(language.dfa).transducer
        dfa = transducer._dfa
        width = transducer.width
        for state, code in transducer._order.items():
            for letter in dfa.alphabet:
                expected = encode_fixed(
                    transducer._order[dfa.step(state, letter)], width
                )
                assert transducer.relay(letter, encode_fixed(code, width)) == (
                    expected
                )

    def _relay_error(self, letter, message):
        transducer = DFARecognizer(_mod3()).transducer
        assert transducer.width == 2
        with pytest.raises(Exception) as raised:
            transducer.relay(letter, message)
        return type(raised.value), str(raised.value)

    @pytest.mark.parametrize("message", ["1", "011", ""])
    def test_wrong_width(self, message):
        assert self._relay_error("a", Bits(message)) == (
            DecodeError,
            f"expected 2 bits, got {len(message)}",
        )

    def test_unknown_state(self):
        assert self._relay_error("a", Bits("11")) == (
            ProtocolError,
            "message decodes to unknown state 3",
        )

    def test_foreign_letter(self):
        assert self._relay_error("z", Bits("01")) == (
            AutomatonError,
            "symbol 'z' not in alphabet ('a', 'b')",
        )
        # A malformed message's error comes first, as it does on decode.
        assert self._relay_error("z", Bits("11"))[0] is ProtocolError
