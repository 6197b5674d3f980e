"""Tests for the core recognizers: Theorems 1/6 and the §7 algorithms.

Every recognizer is validated two ways: against the language's membership
predicate on sampled words, and (where a closed form exists) for the
*exact* bit cost the paper's construction promises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import fixed_width_for
from repro.core.comparison import (
    CollectAllRecognizer,
    CopyRecognizer,
    MarkedPalindromeRecognizer,
    predicted_copy_bits,
)
from repro.core.counters import BlockCounterRecognizer, predicted_block_counter_bits
from repro.core.counting import (
    CountingAlgorithm,
    LengthPredicateRecognizer,
    predicted_counting_bits,
)
from repro.core.hierarchy import HierarchyRecognizer
from repro.core.known_n import KnownNHierarchyRecognizer, KnownNLengthRecognizer
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
    one_pass_bits,
    two_pass_bits,
)
from repro.core.regular_bidirectional import BidirectionalDFARecognizer
from repro.core.regular_onepass import DFARecognizer
from repro.errors import ProtocolError
from repro.languages import (
    AnBn,
    AnBnCn,
    CopyLanguage,
    MarkedPalindrome,
    PeriodicLanguage,
    STANDARD_GROWTHS,
)
from repro.languages.nonregular import is_prime
from repro.languages.regular import (
    mod_count_language,
    parity_language,
    substring_language,
    tradeoff_language,
)
from repro.ring import run_bidirectional, run_unidirectional
from repro.ring.schedulers import LifoScheduler, RandomScheduler

from conftest import all_words


class TestDFARecognizer:
    @pytest.mark.parametrize(
        "language",
        [parity_language(), mod_count_language("a", 3, 1), substring_language("abb")],
        ids=lambda l: l.name,
    )
    def test_exhaustive_agreement(self, language):
        algorithm = DFARecognizer(language.dfa, name=language.name)
        for word in all_words("ab", 7):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_exact_bits(self):
        language = mod_count_language("a", 3, 1)
        algorithm = DFARecognizer(language.dfa)
        width = fixed_width_for(len(algorithm.dfa.states))
        for n in [1, 2, 5, 17, 64]:
            trace = run_unidirectional(algorithm, "a" * n)
            assert trace.total_bits == width * n == algorithm.predicted_bits(n)

    def test_one_pass(self):
        algorithm = DFARecognizer(parity_language().dfa)
        trace = run_unidirectional(algorithm, "ababab")
        assert trace.pass_count() == 1
        assert trace.max_in_flight == 1

    def test_minimization_shrinks_width(self):
        """Non-minimal automata still work, minimal ones cost fewer bits."""
        from repro.automata.regex import regex_to_nfa

        for pattern, word in (
            ("(a|b)*abb", "ababb"),
            ("(a|b)*a(a|b)(a|b)(a|b)", "ab" * 64),
        ):
            big = regex_to_nfa(pattern, "ab").determinize()
            fat = DFARecognizer(big, minimal=False)
            slim = DFARecognizer(big, minimal=True)
            slim_trace = run_unidirectional(slim, word)
            assert run_unidirectional(fat, word).decision == slim_trace.decision
            assert slim.bits_per_message <= fat.bits_per_message
            assert slim_trace.total_bits == slim.bits_per_message * len(word)
        # The last pattern's subset automaton is strictly wider: Theorem
        # 1's constant is the minimal automaton's.
        assert slim.bits_per_message < fat.bits_per_message

    def test_second_message_to_follower_rejected(self):
        algorithm = DFARecognizer(parity_language().dfa)
        processor = algorithm.create_processor("a", is_leader=False)
        message = algorithm.transducer.initial_message("a")
        from repro.ring.messages import Direction

        processor.on_receive(message, Direction.CCW)
        with pytest.raises(ProtocolError, match="second message"):
            processor.on_receive(message, Direction.CCW)


class TestBidirectionalDFARecognizer:
    def test_same_cost_any_scheduler(self):
        language = parity_language()
        algorithm = BidirectionalDFARecognizer(language.dfa)
        reference = run_unidirectional(DFARecognizer(language.dfa), "aabb")
        for scheduler in [None, LifoScheduler(), RandomScheduler(9)]:
            trace = run_bidirectional(algorithm, "aabb", scheduler=scheduler)
            assert trace.decision == reference.decision
            assert trace.total_bits == reference.total_bits


class TestCounting:
    def test_computes_n(self):
        for n in [1, 2, 3, 10, 100]:
            algorithm = CountingAlgorithm()
            run_unidirectional(algorithm, "a" * n)
            assert algorithm.last_leader.computed_n == n

    def test_exact_bits(self):
        for n in [1, 5, 33, 128, 512]:
            algorithm = CountingAlgorithm()
            trace = run_unidirectional(algorithm, "a" * n)
            assert trace.total_bits == predicted_counting_bits(n)

    def test_all_information_states_distinct(self):
        algorithm = CountingAlgorithm()
        trace = run_unidirectional(algorithm, "ab" * 16)
        assert trace.distinct_information_states() == 32

    def test_length_predicate(self):
        algorithm = LengthPredicateRecognizer(is_prime, name="prime")
        for n in range(1, 40):
            trace = run_unidirectional(algorithm, "a" * n)
            assert trace.decision == is_prime(n), n


class TestBlockCounters:
    def test_anbncn_exhaustive(self):
        language = AnBnCn()
        algorithm = BlockCounterRecognizer("012")
        for word in all_words("012", 6):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_anbn(self):
        language = AnBn()
        algorithm = BlockCounterRecognizer("ab")
        for word in all_words("ab", 7):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_exact_bits_on_members(self):
        algorithm = BlockCounterRecognizer("012")
        for k in [1, 2, 5, 20]:
            word = "0" * k + "1" * k + "2" * k
            trace = run_unidirectional(algorithm, word)
            assert trace.total_bits == predicted_block_counter_bits(3 * k, 3)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ProtocolError):
            BlockCounterRecognizer("aa")
        with pytest.raises(ProtocolError):
            BlockCounterRecognizer("")

    def test_out_of_order_letters(self):
        algorithm = BlockCounterRecognizer("012")
        assert run_unidirectional(algorithm, "021").decision is False
        assert run_unidirectional(algorithm, "102").decision is False

    def test_predicted_requires_divisible(self):
        with pytest.raises(ProtocolError):
            predicted_block_counter_bits(7, 3)


class TestComparison:
    def test_copy_exhaustive(self):
        language = CopyLanguage()
        algorithm = CopyRecognizer()
        for word in all_words("abc", 5):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_palindrome_exhaustive(self):
        language = MarkedPalindrome()
        algorithm = MarkedPalindromeRecognizer()
        for word in all_words("abc", 5):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_exact_bits(self, rng):
        language = CopyLanguage()
        algorithm = CopyRecognizer()
        for n in [1, 3, 7, 15, 31]:
            word = language.sample_member(n, rng)
            trace = run_unidirectional(algorithm, word)
            assert trace.total_bits == predicted_copy_bits(n)

    def test_predicted_rejects_even(self):
        with pytest.raises(ProtocolError):
            predicted_copy_bits(4)

    def test_single_marker_word(self):
        assert run_unidirectional(CopyRecognizer(), "c").decision is True
        assert run_unidirectional(MarkedPalindromeRecognizer(), "c").decision is True

    def test_collect_all_is_an_oracle(self, rng):
        language = CopyLanguage()
        algorithm = CollectAllRecognizer(language)
        for n in [1, 4, 9, 12]:
            for word in [
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
            ]:
                if word is None:
                    continue
                trace = run_unidirectional(algorithm, word)
                assert trace.decision == language.contains(word)
                assert trace.total_bits == algorithm.predicted_bits(n)

    def test_collect_all_decodes_word(self):
        language = CopyLanguage()
        algorithm = CollectAllRecognizer(language)
        encoded = algorithm.encode_letter("a") + algorithm.encode_letter("c")
        assert algorithm.decode_word(encoded) == "ac"

    def test_collect_all_ragged_message(self):
        algorithm = CollectAllRecognizer(CopyLanguage())
        from repro.bits import Bits

        with pytest.raises(ProtocolError, match="ragged"):
            algorithm.decode_word(Bits("101"))


class TestHierarchyRecognizer:
    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    def test_agreement_with_language(self, growth, rng):
        language = PeriodicLanguage(growth)
        algorithm = HierarchyRecognizer(language)
        for n in range(2, 40):
            for word in [
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
            ]:
                if word is None:
                    continue
                trace = run_unidirectional(algorithm, word)
                assert trace.decision == language.contains(word), (growth.name, word)

    def test_two_passes(self, rng):
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        algorithm = HierarchyRecognizer(language)
        word = language.sample_member(16, rng)
        trace = run_unidirectional(algorithm, word)
        assert trace.pass_count() == 2
        assert trace.message_count == 32

    def test_leader_learns_n(self, rng):
        language = PeriodicLanguage(STANDARD_GROWTHS[1])
        algorithm = HierarchyRecognizer(language)
        ring_word = language.sample_member(25, rng)
        from repro.ring.unidirectional import UnidirectionalRing

        ring = UnidirectionalRing(algorithm, ring_word)
        ring.run()
        assert ring.processors[0].computed_n == 25

    def test_size_one_ring(self):
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        algorithm = HierarchyRecognizer(language)
        trace = run_unidirectional(algorithm, "a")
        # g(1) = 1 => p = 1: the single-letter word is trivially periodic.
        assert trace.decision is language.contains("a") is True

    def test_size_one_ring_degenerate_growth(self):
        from repro.languages.hierarchy import GrowthFunction

        zero = GrowthFunction("zero", lambda n: 0.0)
        language = PeriodicLanguage(zero)
        algorithm = HierarchyRecognizer(language)
        trace = run_unidirectional(algorithm, "ab")
        # p = 0: no word of this length is a member; leader rejects.
        assert trace.decision is language.contains("ab") is False


class TestKnownN:
    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    def test_agreement(self, growth, rng):
        language = PeriodicLanguage(growth)
        algorithm = KnownNHierarchyRecognizer(language)
        for n in range(2, 30):
            for word in [
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
            ]:
                if word is None:
                    continue
                trace = run_unidirectional(algorithm, word)
                assert trace.decision == language.contains(word), (growth.name, word)

    def test_positioned_factory_required(self):
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        algorithm = KnownNHierarchyRecognizer(language)
        with pytest.raises(ProtocolError, match="positional knowledge"):
            algorithm.create_processor("a", is_leader=True)

    def test_single_pass_vs_two(self, rng):
        """Known n saves the counting pass entirely."""
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        known = KnownNHierarchyRecognizer(language)
        unknown = HierarchyRecognizer(language)
        word = language.sample_member(24, rng)
        known_trace = run_unidirectional(known, word)
        unknown_trace = run_unidirectional(unknown, word)
        assert known_trace.pass_count() == 1
        assert unknown_trace.pass_count() == 2
        assert known_trace.total_bits < unknown_trace.total_bits

    def test_prime_length_exact_n_bits(self):
        algorithm = KnownNLengthRecognizer(is_prime)
        for n in range(1, 30):
            trace = run_unidirectional(algorithm, "a" * n)
            assert trace.decision == is_prime(n)
            assert trace.total_bits == n
            assert trace.message_count == n

    def test_known_n_length_positioned_only(self):
        algorithm = KnownNLengthRecognizer(is_prime)
        with pytest.raises(ProtocolError):
            algorithm.create_processor("a", is_leader=True)


class TestPassesTradeoff:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_both_recognize_the_language(self, k, rng):
        language = tradeoff_language(k)
        one = OnePassTradeoffRecognizer(language)
        two = TwoPassTradeoffRecognizer(language)
        for n in range(1, 18):
            for word in [
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
            ]:
                if word is None:
                    continue
                expected = language.contains(word)
                assert run_unidirectional(one, word).decision == expected
                assert run_unidirectional(two, word).decision == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_exact_formulas(self, k, rng):
        language = tradeoff_language(k)
        one = OnePassTradeoffRecognizer(language)
        two = TwoPassTradeoffRecognizer(language)
        for n in [4, 9, 32]:
            word = language.sample_member(n, rng)
            assert run_unidirectional(one, word).total_bits == one_pass_bits(k, n)
            assert run_unidirectional(two, word).total_bits == two_pass_bits(k, n)

    def test_crossover_at_k3(self):
        """One pass wins at k=1, ties at k=2, loses from k=3 on."""
        assert one_pass_bits(1, 100) < two_pass_bits(1, 100)
        assert one_pass_bits(2, 100) == two_pass_bits(2, 100)
        assert one_pass_bits(3, 100) > two_pass_bits(3, 100)
        assert one_pass_bits(5, 100) > two_pass_bits(5, 100) * 3

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_formula_shapes(self, k, n):
        assert two_pass_bits(k, n) == (2 * k + 1) * n
        assert one_pass_bits(k, n) == (k + (1 << k) - 1) * n


class TestCountingCodecAblation:
    def test_unary_counting_correct_but_quadratic(self):
        from repro.core.counting import (
            UnaryCountingAlgorithm,
            predicted_counting_bits,
            predicted_unary_counting_bits,
        )

        for n in [1, 7, 40]:
            algorithm = UnaryCountingAlgorithm()
            trace = run_unidirectional(algorithm, "a" * n)
            assert algorithm.last_leader.computed_n == n
            assert trace.total_bits == predicted_unary_counting_bits(n)
        # Quadratic beats n log n from small n on, and the gap widens.
        assert predicted_unary_counting_bits(64) > 3 * predicted_counting_bits(64)
        ratios = [
            predicted_unary_counting_bits(n) / predicted_counting_bits(n)
            for n in (16, 64, 512)
        ]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 10


class TestDyckRecognizer:
    def test_exhaustive(self):
        from repro.core import DyckRecognizer
        from repro.languages import DyckLanguage

        language, algorithm = DyckLanguage(), DyckRecognizer()
        for word in all_words("()", 8):
            if not word:
                continue
            trace = run_unidirectional(algorithm, word)
            assert trace.decision == language.contains(word), word

    def test_samplers(self, rng):
        from repro.languages import DyckLanguage

        language = DyckLanguage()
        for n in range(2, 30, 2):
            member = language.sample_member(n, rng)
            assert member is not None and language.contains(member)
            assert len(member) == n
            non_member = language.sample_non_member(n, rng)
            assert non_member is not None and not language.contains(non_member)
        assert language.sample_member(3, rng) is None

    def test_nlogn_class(self, rng):
        """The CF companion to E8: Dyck also sits on the n log n shelf."""
        from repro.analysis.growth import classify_growth
        from repro.core import DyckRecognizer
        from repro.languages import DyckLanguage

        language, algorithm = DyckLanguage(), DyckRecognizer()
        ns, bits = [], []
        for n in (16, 32, 64, 128, 256):
            # Worst case: maximal height (all opens then all closes).
            word = "(" * (n // 2) + ")" * (n // 2)
            trace = run_unidirectional(algorithm, word)
            assert trace.decision is True
            ns.append(n)
            bits.append(trace.total_bits)
        assert classify_growth(ns, bits).model.name == "n*log(n)"

    def test_underflow_rejected_early(self):
        from repro.core import DyckRecognizer

        trace = run_unidirectional(DyckRecognizer(), ")(")
        assert trace.decision is False
