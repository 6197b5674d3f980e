"""The §7(5) recognizers' followers against a BitReader reading of the wire.

Both followers compute on the message's packed integer.  These tests
decode every delivered message with a field-by-field :class:`BitReader`
reference of the documented wire format and check that each follower
sent exactly the reference transition of what it received.
"""

from __future__ import annotations

import random

import pytest

from repro.bits import BitReader, Bits, encode_fixed
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
)
from repro.errors import DecodeError, ProtocolError
from repro.languages.regular import tradeoff_language
from repro.ring import Direction, run_unidirectional


def _words(language, rng):
    for n in (1, 2, 3, 7, 31, 64):
        for word in (language.sample_member(n, rng), language.sample_non_member(n, rng)):
            if word is not None:
                yield word


def _one_pass_reference(language, letter, message):
    """count (k bits), then one parity per candidate target, flipped at
    the follower's own letter; the count advances mod 2^k - 1."""
    k, modulus = language.k, language.modulus
    reader = BitReader(message)
    count = reader.read_fixed(k)
    parities = [reader.read_bit() for _ in range(modulus)]
    reader.expect_exhausted()
    index = language.alphabet.index(letter)
    if index < modulus:
        parities[index] ^= 1
    return encode_fixed((count + 1) % modulus, k) + Bits(parities)


def _two_pass_reference(language, letter, message):
    """Pass 1: a k-bit count.  Pass 2: a k-bit target index, then the
    running parity, flipped where the letter is the target."""
    k = language.k
    reader = BitReader(message)
    if len(message) == k:
        return encode_fixed((reader.read_fixed(k) + 1) % language.modulus, k)
    target = reader.read_fixed(k)
    parity = reader.read_bit()
    reader.expect_exhausted()
    if letter == language.alphabet[target]:
        parity ^= 1
    return encode_fixed(target, k) + Bits([parity])


def _assert_followers_match(trace, language, reference):
    events = trace.events
    for received, sent in zip(events, events[1:]):
        # Unidirectional: one message in flight, so the next event is the
        # receiver's reply to this one.
        assert sent.sender == received.receiver
        if received.receiver == trace.leader:
            continue
        letter = trace.word[received.receiver]
        assert sent.bits == reference(language, letter, received.bits)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
class TestWireFormat:
    def test_one_pass_follower_is_the_reference_transition(self, k):
        language = tradeoff_language(k)
        recognizer = OnePassTradeoffRecognizer(language)
        for word in _words(language, random.Random(k)):
            trace = run_unidirectional(recognizer, word, trace="full")
            assert trace.decision == language.contains(word)
            assert all(len(e.bits) == k + language.modulus for e in trace.events)
            _assert_followers_match(trace, language, _one_pass_reference)

    def test_two_pass_follower_is_the_reference_transition(self, k):
        language = tradeoff_language(k)
        recognizer = TwoPassTradeoffRecognizer(language)
        for word in _words(language, random.Random(k)):
            trace = run_unidirectional(recognizer, word, trace="full")
            assert trace.decision == language.contains(word)
            assert [len(e.bits) for e in trace.events] == (
                [k] * len(word) + [k + 1] * len(word)
            )
            _assert_followers_match(trace, language, _two_pass_reference)


class TestMalformedMessages:
    # k = 3: a one-pass message is 3 count bits + 7 parities = 10 bits.
    @pytest.mark.parametrize(
        "length, wording",
        [
            (0, "attempt to read 3 bits with only 0 left"),
            (2, "attempt to read 3 bits with only 2 left"),
            (5, "attempt to read past the end of the message"),
            (9, "attempt to read past the end of the message"),
            (12, "2 unread bits at end of message"),
        ],
    )
    def test_one_pass_follower_rejects_wrong_length(self, length, wording):
        recognizer = OnePassTradeoffRecognizer(tradeoff_language(3))
        follower = recognizer.create_processor("2", is_leader=False)
        with pytest.raises(DecodeError) as raised:
            follower.on_receive(Bits.zeros(length), Direction.CCW)
        assert str(raised.value) == wording

    def test_two_pass_follower_passes_unknown_shapes_through(self):
        algorithm = TwoPassTradeoffRecognizer(tradeoff_language(3)).multipass
        for message in (Bits(""), Bits("10"), Bits("10110"), Bits("1" * 9)):
            assert algorithm.follower_step("0", None, message) == (None, message)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_one_pass_relay_errors_are_unchanged(self, k):
        # The relay reads the packed int directly; a wrong length still
        # goes through the codec for its error, and a foreign letter
        # still fails the per-letter flip lookup.
        transducer = OnePassTradeoffRecognizer(tradeoff_language(k)).transducer
        width = k + transducer.modulus
        with pytest.raises(DecodeError, match="unread bits at end of message"):
            transducer.relay("0", Bits.zeros(width + 1))
        with pytest.raises(DecodeError, match="attempt to read"):
            transducer.relay("0", Bits.zeros(width - 1))
        with pytest.raises(KeyError):
            transducer.relay("z", Bits.zeros(width))

    def test_two_pass_steps_build_the_codec_messages(self):
        language = tradeoff_language(3)
        algorithm = TwoPassTradeoffRecognizer(language).multipass
        for count in range(language.modulus):
            _, sent = algorithm.follower_step("0", None, encode_fixed(count, 3))
            assert sent == encode_fixed((count + 1) % language.modulus, 3)
        for value in range(16):
            message = encode_fixed(value, 4)
            _, sent = algorithm.follower_step("5", None, message)
            flipped = language.alphabet[value >> 1] == "5"
            assert sent == encode_fixed(value ^ 1 if flipped else value, 4)


class TestValidateWord:
    @pytest.mark.parametrize(
        "recognizer",
        [
            OnePassTradeoffRecognizer(tradeoff_language(2)),
            TwoPassTradeoffRecognizer(tradeoff_language(2)),
        ],
        ids=["one-pass", "two-pass"],
    )
    def test_names_the_first_foreign_letter(self, recognizer):
        recognizer.validate_word("0123" * 3)
        with pytest.raises(ProtocolError) as raised:
            recognizer.validate_word("01y2x3")
        assert str(raised.value) == (
            f"letter 'y' not in algorithm alphabet {recognizer.alphabet!r}"
        )
        with pytest.raises(ProtocolError, match="letter 'x'"):
            run_unidirectional(recognizer, "0x1y", trace="metrics")
