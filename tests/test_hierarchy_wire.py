"""The §7(3) and §7(4) compare followers against a BitReader reading of the wire.

Both followers slide a full window on the message's packed integer.
These tests decode every delivered message with a field-by-field
:class:`BitReader` reference of the documented wire format and check
that each follower sent exactly the reference transition of what it
received; malformed messages must keep the codec's errors.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitReader, Bits, encode_elias_gamma, encode_fixed
from repro.core.hierarchy import HierarchyRecognizer
from repro.core.known_n import KnownNHierarchyRecognizer
from repro.errors import DecodeError
from repro.languages.hierarchy import STANDARD_GROWTHS, PeriodicLanguage
from repro.ring import Direction, UnidirectionalRing, run_unidirectional

# A three-letter alphabet makes letters two bits wide, so a window's
# bit length and its letter count differ.
LANGUAGES = [
    PeriodicLanguage(growth, alphabet)
    for growth in STANDARD_GROWTHS
    for alphabet in ("ab", "abc")
]


def _words(language, rng):
    for n in (1, 2, 3, 5, 16, 40, 97):
        for word in (
            language.sample_member(n, rng),
            language.sample_non_member(n, rng),
        ):
            if word is not None:
                yield word


def _hierarchy_reference(language, letter, message):
    """Count: phase 0, gamma(count), incremented.  Compare: phase 1, the
    fail flag, then ``full`` or ``filling`` + gamma(slots to fill), then
    the window letters; a full window checks its front and slides."""
    width = HierarchyRecognizer(language).letter_width
    reader = BitReader(message)
    if reader.read_bit() == 0:
        count = reader.read_elias_gamma()
        reader.expect_exhausted()
        return Bits([0]) + encode_elias_gamma(count + 1)
    fail = reader.read_bit()
    full = reader.read_bit()
    to_fill = 0 if full else reader.read_elias_gamma()
    window = []
    while reader.remaining:
        window.append(reader.read_fixed(width))
    mine = language.alphabet.index(letter)
    if full:
        if window[0] != mine:
            fail = 1
        window = window[1:] + [mine]
    else:
        window.append(mine)
        to_fill -= 1
    out = Bits([1, fail])
    out += Bits([0]) + encode_elias_gamma(to_fill) if to_fill else Bits([1])
    for code in window:
        out += encode_fixed(code, width)
    return out


def _known_n_reference(language, letter, message, n):
    """The fail flag, then the window letters; once the window holds
    ``p`` letters each step checks its front and slides."""
    width = KnownNHierarchyRecognizer(language).letter_width
    reader = BitReader(message)
    fail = reader.read_bit()
    window = []
    while reader.remaining:
        window.append(reader.read_fixed(width))
    mine = language.alphabet.index(letter)
    if len(window) == language.block_length(n):
        if window[0] != mine:
            fail = 1
        window = window[1:]
    out = Bits([fail])
    for code in window + [mine]:
        out += encode_fixed(code, width)
    return out


def _assert_followers_match(trace, reference):
    events = trace.events
    for received, sent in zip(events, events[1:]):
        # Unidirectional: one message in flight, so the next event is the
        # receiver's reply to this one.
        assert sent.sender == received.receiver
        if received.receiver == trace.leader:
            continue
        letter = trace.word[received.receiver]
        assert sent.bits == reference(letter, received.bits)


@pytest.mark.parametrize("language", LANGUAGES, ids=lambda lang: lang.name + lang.alphabet[-1])
class TestWireFormat:
    def test_hierarchy_follower_is_the_reference_transition(self, language):
        recognizer = HierarchyRecognizer(language)
        for word in _words(language, random.Random(len(language.alphabet))):
            trace = run_unidirectional(recognizer, word, trace="full")
            assert trace.decision == language.contains(word)
            _assert_followers_match(
                trace, lambda letter, bits: _hierarchy_reference(language, letter, bits)
            )

    def test_known_n_follower_is_the_reference_transition(self, language):
        recognizer = KnownNHierarchyRecognizer(language)
        for word in _words(language, random.Random(len(language.alphabet))):
            trace = run_unidirectional(recognizer, word, trace="full")
            assert trace.decision == language.contains(word)
            _assert_followers_match(
                trace,
                lambda letter, bits: _known_n_reference(
                    language, letter, bits, len(word)
                ),
            )


LANGUAGE = PeriodicLanguage(STANDARD_GROWTHS[3], "abc")  # p = n, b = 2


class TestMalformedMessages:
    def _hierarchy_follower(self):
        return HierarchyRecognizer(LANGUAGE).create_processor("b", is_leader=False)

    def _known_n_follower(self, n):
        return KnownNHierarchyRecognizer(LANGUAGE).create_processor_positioned(
            "b", is_leader=False, index=1, size=n
        )

    @pytest.mark.parametrize(
        "message, wording",
        [
            ("111" + "01" + "1", "attempt to read 2 bits with only 1 left"),
            ("101" + "0", "attempt to read 2 bits with only 1 left"),
            ("10", "attempt to read past the end of the message"),
        ],
    )
    def test_hierarchy_follower_keeps_the_codec_errors(self, message, wording):
        with pytest.raises(DecodeError) as raised:
            self._hierarchy_follower().on_receive(Bits(message), Direction.CCW)
        assert str(raised.value) == wording

    def test_hierarchy_follower_full_flag_with_no_window(self):
        with pytest.raises(IndexError):
            self._hierarchy_follower().on_receive(Bits("101"), Direction.CCW)

    @pytest.mark.parametrize(
        "message, wording",
        [
            ("1" + "01" + "1", "attempt to read 2 bits with only 1 left"),
            ("", "attempt to read past the end of the message"),
        ],
    )
    def test_known_n_follower_keeps_the_codec_errors(self, message, wording):
        with pytest.raises(DecodeError) as raised:
            self._known_n_follower(2).on_receive(Bits(message), Direction.CCW)
        assert str(raised.value) == wording

    def test_full_window_steps(self):
        # "b" is letter 1.  E9: the front a (0) fails the check and the
        # window slides to (b, b).  E10 at p = 2: the front b passes and
        # the window slides to (a, b).
        sent = self._hierarchy_follower().on_receive(Bits("101" "00" "01"), Direction.CCW)
        assert [send.bits for send in sent] == [Bits("111" "01" "01")]
        sent = self._known_n_follower(2).on_receive(Bits("0" "01" "00"), Direction.CCW)
        assert [send.bits for send in sent] == [Bits("0" "00" "01")]


class TestCountPass:
    """The E9 follower's count fast path: phase 0 then gamma(v) is the
    int v in 2 * bitlen(v) bits, answered with v + 1 the same way."""

    def _follower(self):
        return HierarchyRecognizer(LANGUAGE).create_processor("b", is_leader=False)

    def test_fast_path_equals_the_codec_path(self):
        follower = self._follower()
        for v in range(1, 2**16 + 1):
            message = Bits([0]) + encode_elias_gamma(v)
            [send] = follower.on_receive(message, Direction.CCW)
            assert send.bits == _hierarchy_reference(LANGUAGE, "b", message)
            assert send.direction is Direction.CW

    @pytest.mark.parametrize(
        "message, wording",
        [
            ("0", "attempt to read past the end of the message"),
            ("0000", "attempt to read past the end of the message"),
            ("0001", "attempt to read 2 bits with only 0 left"),
            ("011", "1 unread bits at end of message"),
            ("00101", "1 unread bits at end of message"),
            ("00110", "1 unread bits at end of message"),
        ],
    )
    def test_malformed_count_messages_keep_the_codec_errors(self, message, wording):
        with pytest.raises(DecodeError) as raised:
            self._follower().on_receive(Bits(message), Direction.CCW)
        assert str(raised.value) == wording

    @given(tail=st.text(alphabet="01", max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_any_count_phase_message_matches_the_reference(self, tail):
        message = Bits("0" + tail)
        try:
            expected = _hierarchy_reference(LANGUAGE, "b", message)
        except DecodeError as error:
            with pytest.raises(DecodeError) as raised:
                self._follower().on_receive(message, Direction.CCW)
            assert str(raised.value) == str(error)
        else:
            [send] = self._follower().on_receive(message, Direction.CCW)
            assert send.bits == expected


def test_leader_learns_n_after_a_full_run():
    language = LANGUAGES[0]
    word = language.sample_member(25, random.Random(4))
    ring = UnidirectionalRing(HierarchyRecognizer(language), word)
    ring.run(trace="metrics")
    assert ring.processors[0].computed_n == 25
