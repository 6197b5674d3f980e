"""Tests for the Theorem 5 machinery: token serialization and ring->line."""

from __future__ import annotations

import pytest

from repro.bits import Bits
from repro.core.comparison import CopyRecognizer
from repro.core.counters import BlockCounterRecognizer
from repro.core.regular_onepass import DFARecognizer
from repro.errors import RingError, TokenViolation
from repro.languages.regular import parity_language
from repro.ring import run_bidirectional, run_unidirectional
from repro.ring.line import restore_from_line, ring_to_line
from repro.ring.messages import Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.token import (
    assert_token_trace,
    is_token_trace,
    serialize_to_token,
)

from test_ring_simulators import EchoRing, PingPong


def events_signature(events):
    return [(e.sender, e.receiver, e.direction, e.bits) for e in events]


class _HeavyLeader(Processor):
    """Sends one big block CW; accepts when the 1-bit ack returns."""

    def on_start(self):
        return [Send.cw(Bits.ones(512))]

    def on_receive(self, message, arrived_from):
        self.decide(True)
        return ()


class _Ack(Processor):
    """Answers anything with one bit CW: the first follower shrinks the
    block to an ack, the others pass the ack on."""

    def on_receive(self, message, arrived_from):
        return [Send.cw(Bits("1"))]


class HeavyHandshake(RingAlgorithm):
    """A maximally skewed link profile: link 0 carries ~all the bits."""

    name = "heavy-handshake"

    def __init__(self):
        super().__init__("ab")

    def create_processor(self, letter, is_leader):
        if is_leader:
            return _HeavyLeader(letter, is_leader=True)
        return _Ack(letter, is_leader=False)


class TestTokenPredicate:
    def test_sequential_is_token(self):
        trace = run_unidirectional(EchoRing(), "abab")
        assert is_token_trace(trace)
        assert_token_trace(trace)

    def test_chaotic_is_not_token(self):
        from repro.experiments.e05_token_line import ChaoticBroadcast

        trace = run_bidirectional(ChaoticBroadcast(), "aaaa")
        assert trace.max_in_flight == 2
        assert not is_token_trace(trace)
        with pytest.raises(TokenViolation):
            assert_token_trace(trace)


class TestSerializeToToken:
    def test_sequential_overhead_is_flag_bit_only(self):
        """A one-in-flight algorithm: token never moves idle."""
        trace = run_unidirectional(EchoRing(), "abababab")
        token = serialize_to_token(trace)
        assert token.move_bits == 0
        assert token.carry_bits == trace.total_bits + trace.message_count
        assert token.overhead_ratio == 2.0  # 1-bit payloads doubled by flag

    def test_larger_payloads_lower_ratio(self):
        algorithm = BlockCounterRecognizer("012")
        trace = run_unidirectional(algorithm, "001122")
        token = serialize_to_token(trace)
        assert token.move_bits == 0
        assert 1.0 < token.overhead_ratio < 1.2

    def test_preserves_payloads(self):
        for word in ["abab", "aabb", "ababab"]:
            trace = run_unidirectional(DFARecognizer(parity_language().dfa), word)
            token = serialize_to_token(trace)
            assert token.preserves_payloads()

    def test_ccw_travel(self):
        trace = run_bidirectional(PingPong(), "abab")
        token = serialize_to_token(trace)
        assert token.preserves_payloads()
        assert token.move_bits == 0

    def test_chaotic_broadcast_bounded(self):
        from repro.experiments.e05_token_line import ChaoticBroadcast

        trace = run_bidirectional(ChaoticBroadcast(), "a" * 16)
        token = serialize_to_token(trace)
        assert token.preserves_payloads()
        # Causal reordering lets the token finish one wave then the other:
        # bounded overhead despite concurrency.
        assert token.overhead_ratio <= 3.0

    def test_carry_count_matches_messages(self):
        trace = run_unidirectional(CopyRecognizer(), "abcab")
        token = serialize_to_token(trace)
        assert len(token.payload_events()) == trace.message_count


class TestRingToLine:
    @pytest.mark.parametrize(
        "word",
        ["ab", "abab", "aabbab", "abababab"],
    )
    def test_ratio_bound(self, word):
        trace = run_unidirectional(DFARecognizer(parity_language().dfa), word)
        result = ring_to_line(trace)
        assert result.ratio <= 4.0

    def test_needs_two_processors(self):
        trace = run_unidirectional(EchoRing(), "a")
        with pytest.raises(RingError):
            ring_to_line(trace)

    def test_cut_link_is_min_bits(self):
        trace = run_unidirectional(EchoRing(), "abab")
        result = ring_to_line(trace)
        totals = trace.bits_per_link()
        assert totals[result.cut_link] == min(totals.values())

    def test_renumbering_is_permutation(self):
        trace = run_unidirectional(EchoRing(), "ababa")
        result = ring_to_line(trace)
        assert sorted(result.new_index) == list(range(5))

    def test_rerouted_chain_length(self):
        trace = run_unidirectional(EchoRing(), "abab")
        result = ring_to_line(trace)
        rerouted = result.rerouted_messages()
        tagged = [e for e in result.events if e.bits[0] == 1]
        assert len(tagged) == rerouted * (len(trace.word) - 1)

    def test_events_stay_on_line(self):
        trace = run_unidirectional(CopyRecognizer(), "abcab")
        result = ring_to_line(trace)
        n = trace.ring_size
        for event in result.events:
            assert 0 <= event.sender < n and 0 <= event.receiver < n
            assert abs(event.sender - event.receiver) == 1

    @pytest.mark.parametrize(
        "algorithm,word",
        [
            (EchoRing(), "abab"),
            (DFARecognizer(parity_language().dfa), "aabbab"),
            (CopyRecognizer(), "abcab"),
            (BlockCounterRecognizer("012"), "001122"),
        ],
        ids=["echo", "dfa", "copy", "counters"],
    )
    def test_restore_inverts(self, algorithm, word):
        trace = run_unidirectional(algorithm, word)
        result = ring_to_line(trace)
        restored = restore_from_line(result)
        assert events_signature(restored) == events_signature(trace.events)

    def test_restore_inverts_bidirectional(self):
        trace = run_bidirectional(PingPong(), "abab")
        result = ring_to_line(trace)
        restored = restore_from_line(result)
        assert events_signature(restored) == events_signature(trace.events)

    def test_marker_bits_present(self):
        trace = run_unidirectional(EchoRing(), "abab")
        result = ring_to_line(trace)
        for event in result.events:
            assert event.bits[0] in (0, 1)
            assert len(event.bits) >= 2  # marker + at least 1 payload bit


class TestTokenLineComposition:
    def test_token_then_line_total_bound(self):
        """The full Theorem 5 pipeline: <= 3x then <= 4x => <= 12x."""
        trace = run_unidirectional(BlockCounterRecognizer("ab"), "aabb")
        token = serialize_to_token(trace)
        line = ring_to_line(trace)
        combined = token.overhead_ratio * line.ratio
        assert combined <= 12.0


class TestCutOverride:
    def test_forced_cut_is_respected(self):
        trace = run_unidirectional(EchoRing(), "abab")
        result = ring_to_line(trace, cut=2)
        assert result.cut_link == 2

    def test_forced_cut_still_invertible(self):
        trace = run_unidirectional(CopyRecognizer(), "abcab")
        for cut in range(len(trace.word)):
            result = ring_to_line(trace, cut=cut)
            restored = restore_from_line(result)
            assert events_signature(restored) == events_signature(trace.events)

    def test_cutting_the_heaviest_link_breaks_the_bound(self):
        """Theorem 5 cuts the lightest link; its choice is load-bearing.

        Rerouting the link that carries nearly every bit the long way
        copies its payload n - 1 times, far past the 4x bound.
        """
        trace = run_unidirectional(HeavyHandshake(), "a" * 64)
        totals = trace.bits_per_link()
        heaviest = max(totals, key=totals.__getitem__)
        assert ring_to_line(trace).ratio <= 4.0
        assert ring_to_line(trace, cut=heaviest).ratio > 4.0

    def test_bad_cut_rejected(self):
        trace = run_unidirectional(EchoRing(), "ab")
        with pytest.raises(RingError, match="outside ring"):
            ring_to_line(trace, cut=9)
