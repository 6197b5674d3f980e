"""Inlined draws against ``rng.choice`` / ``randrange``: same words, same state.

The samplers and :class:`RandomScheduler` make their per-letter draws
without going through ``rng.choice`` or ``randrange``: they repeat
``getrandbits(n.bit_length())`` until the draw is below ``n``, which is
CPython's ``Random._randbelow_with_getrandbits``.  Each test below runs a
reference that calls ``rng.choice`` / ``randrange`` the way the code did
before, from the same seed, and compares the words and
``rng.getstate()`` afterwards.  If a future CPython changes how
``choice`` draws, these fail instead of letting every sampled word (and
every table built on them) drift silently.

The DFA walk of :class:`RegularLanguage` has its own ``rng.choice``
reference in ``tests/test_regular_sampling.py`` (E1's six languages and
random total DFAs, members and non-members); the non-stock generator
case is here.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.e01_regular_linear import _languages
from repro.languages.base import FunctionLanguage, _draws_by_getrandbits
from repro.languages.hierarchy import STANDARD_GROWTHS, PeriodicLanguage
from repro.languages.regular import TradeoffLanguage
from repro.ring.schedulers import RandomScheduler
from test_regular_sampling import _reference_member, _reference_non_member

SYMBOLS = "".join(chr(0x41 + i) for i in range(40))

seeds = st.integers(min_value=0, max_value=2**32 - 1)
word_lengths = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=3)


class _RandomOnly(random.Random):
    """Overrides ``random()`` only, so CPython gives it the float-based
    ``_randbelow``: the samplers must fall back to ``rng.choice``."""

    def random(self) -> float:
        return super().random()


class _CountingBits(random.Random):
    """Overrides ``getrandbits``; ``_randbelow`` stays the stock loop."""

    calls = 0

    def getrandbits(self, k: int) -> int:
        self.calls += 1
        return super().getrandbits(k)


def _reference_word(alphabet, length, rng):
    return "".join(rng.choice(alphabet) for _ in range(length))


def _reference_tradeoff_member(language, length, rng):
    index = length % language.modulus
    target = language.alphabet[index]
    word = list(_reference_word(language.alphabet, length, rng))
    if word.count(target) % 2 == 1:
        positions = [i for i, ch in enumerate(word) if ch == target]
        word[rng.choice(positions)] = language.alphabet[
            (index + 1) % len(language.alphabet)
        ]
    return "".join(word)


def _reference_tradeoff_non_member(language, length, rng):
    member = _reference_tradeoff_member(language, length, rng)
    if not length:
        return None
    index = length % language.modulus
    target = language.alphabet[index]
    other = language.alphabet[(index + 1) % len(language.alphabet)]
    position = rng.randrange(length)
    word = list(member)
    word[position] = target if word[position] != target else other
    return "".join(word)


def _reference_periodic_member(language, length, rng):
    if length == 0:
        return None
    p = language.block_length(length)
    if p < 1 or p > length:
        return None
    block = "".join(rng.choice(language.alphabet) for _ in range(p))
    return (block * -(-length // p))[:length]


def _reference_periodic_non_member(language, length, rng):
    member = _reference_periodic_member(language, length, rng)
    if member is None:
        return _reference_word(language.alphabet, length, rng) if length else None
    p = language.block_length(length)
    if length <= p:
        return None
    position = p + rng.randrange(length - p)
    options = [ch for ch in language.alphabet if ch != member[position - p]]
    word = list(member)
    word[position] = rng.choice(options)
    return "".join(word)


class TestRandomWord:
    @given(
        size=st.one_of(
            st.integers(min_value=1, max_value=40),
            st.sampled_from([1, 2, 4, 8, 16, 32]),
        ),
        lengths=word_lengths,
        seed=seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_same_words_and_state_as_choice(self, size, lengths, seed):
        language = FunctionLanguage("any", SYMBOLS[:size], lambda word: True)
        fast, slow = random.Random(seed), random.Random(seed)
        for length in lengths:
            word = language.random_word(length, fast)
            assert word == _reference_word(language.alphabet, length, slow)
            assert len(word) == length
            assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("cls", [_RandomOnly, _CountingBits])
    def test_other_generators_match_their_own_choice(self, cls):
        language = FunctionLanguage("any", "abc", lambda word: True)
        fast, slow = cls(5), cls(5)
        assert language.random_word(300, fast) == _reference_word("abc", 300, slow)
        assert fast.getstate() == slow.getstate()

    def test_which_generators_take_the_inline_draw(self):
        assert _draws_by_getrandbits(random.Random(0))
        assert _draws_by_getrandbits(_CountingBits(0))
        assert not _draws_by_getrandbits(_RandomOnly(0))

    def test_inline_draw_calls_an_overridden_getrandbits(self):
        language = FunctionLanguage("any", "abc", lambda word: True)
        fast, slow = _CountingBits(9), _CountingBits(9)
        language.random_word(100, fast)
        _reference_word("abc", 100, slow)
        assert fast.calls == slow.calls > 100


class TestLanguageSamplers:
    @given(
        k=st.integers(min_value=1, max_value=5),
        lengths=word_lengths,
        seed=seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_tradeoff_samplers(self, k, lengths, seed):
        language = TradeoffLanguage(k)
        fast, slow = random.Random(seed), random.Random(seed)
        for length in lengths:
            assert language.sample_member(length, fast) == _reference_tradeoff_member(
                language, length, slow
            )
            assert language.sample_non_member(
                length, fast
            ) == _reference_tradeoff_non_member(language, length, slow)
            assert fast.getstate() == slow.getstate()

    @given(
        growth=st.sampled_from(STANDARD_GROWTHS),
        alphabet=st.sampled_from(["ab", "abc", "abcde"]),
        lengths=word_lengths,
        seed=seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_periodic_samplers(self, growth, alphabet, lengths, seed):
        language = PeriodicLanguage(growth, alphabet)
        fast, slow = random.Random(seed), random.Random(seed)
        for length in lengths:
            assert language.sample_member(length, fast) == _reference_periodic_member(
                language, length, slow
            )
            assert language.sample_non_member(
                length, fast
            ) == _reference_periodic_non_member(language, length, slow)
            assert fast.getstate() == slow.getstate()

    def test_dfa_walk_under_a_non_stock_generator(self):
        # The inline draw is skipped: the words are the generator's own
        # rng.choice draws, as in the reference walk.
        for language in _languages():
            fast, slow = _RandomOnly(3), _RandomOnly(3)
            for length in (0, 1, 64):
                assert language.sample_member(length, fast) == _reference_member(
                    language, length, slow
                )
                assert language.sample_non_member(
                    length, fast
                ) == _reference_non_member(language, length, slow)
            assert fast.getstate() == slow.getstate()


class TestRandomScheduler:
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=70), max_size=50),
        seed=seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_choices_and_state_as_randrange(self, counts, seed):
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        for count in counts:
            candidates = list(range(count))
            assert scheduler.choose(candidates) == reference.randrange(count)
        assert scheduler._rng.getstate() == reference.getstate()

    def test_one_candidate_still_draws(self):
        scheduler = RandomScheduler(11)
        reference = random.Random(11)
        for _ in range(100):
            assert scheduler.choose(["only"]) == 0
            reference.randrange(1)
        assert scheduler._rng.getstate() == reference.getstate()
        assert scheduler._rng.getstate() != random.Random(11).getstate()

    def test_empty_candidates_raise_randranges_error(self):
        with pytest.raises(ValueError, match="empty range for randrange"):
            RandomScheduler(0).choose([])
