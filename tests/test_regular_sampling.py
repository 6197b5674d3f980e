"""The periodic viable-set sampler against the O(n) walk it replaced.

:meth:`RegularLanguage.sample_member` / ``sample_non_member`` index the
eventually periodic viable-set sequence instead of building one set per
letter.  The reference below is the walk they replaced: it builds all
``length + 1`` sets backward from the targets and draws ``rng.choice``
over the viable symbols in alphabet order.  Both
must return the same word (or ``None``) and leave the RNG in the same
state, call after call on one language object.
"""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.experiments.e01_regular_linear import _languages
from repro.languages.regular import RegularLanguage


def _reference_viable_sets(language, length, targets):
    dfa, alphabet = language.dfa, language.alphabet
    viable = [frozenset()] * (length + 1)
    viable[length] = targets
    for i in range(length - 1, -1, -1):
        viable[i] = frozenset(
            state
            for state in dfa.states
            if any(dfa.transitions[(state, symbol)] in viable[i + 1] for symbol in alphabet)
        )
    return viable


def _reference_walk(language, length, rng, targets):
    dfa, alphabet = language.dfa, language.alphabet
    viable = _reference_viable_sets(language, length, targets)
    if dfa.start not in viable[0]:
        return None
    state = dfa.start
    letters = []
    for remaining in range(length, 0, -1):
        options = [
            symbol
            for symbol in alphabet
            if dfa.transitions[(state, symbol)] in viable[length - remaining + 1]
        ]
        symbol = rng.choice(options)
        letters.append(symbol)
        state = dfa.transitions[(state, symbol)]
    return "".join(letters)


def _reference_member(language, length, rng):
    return _reference_walk(language, length, rng, frozenset(language.dfa.accepting))


def _reference_non_member(language, length, rng):
    dfa = language.dfa
    return _reference_walk(language, length, rng, frozenset(dfa.states) - dfa.accepting)


@st.composite
def total_dfas(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    alphabet = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    states = range(size)
    transitions = {
        (state, symbol): draw(st.integers(min_value=0, max_value=size - 1))
        for state in states
        for symbol in alphabet
    }
    accepting = frozenset(
        state for state in states if draw(st.booleans())
    )
    start = draw(st.integers(min_value=0, max_value=size - 1))
    return DFA(frozenset(states), tuple(alphabet), transitions, start, accepting)


class TestPeriodicSamplerOracle:
    @given(
        dfa=total_dfas(),
        minimal=st.booleans(),
        calls=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=300)),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_words_and_rng_state(self, dfa, minimal, calls, seed):
        language = RegularLanguage("random", dfa, minimal=minimal)
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        for member, length in calls:
            if member:
                fast = language.sample_member(length, fast_rng)
                slow = _reference_member(language, length, slow_rng)
            else:
                fast = language.sample_non_member(length, fast_rng)
                slow = _reference_non_member(language, length, slow_rng)
            assert fast == slow
            assert fast_rng.getstate() == slow_rng.getstate()
            if fast is not None:
                assert len(fast) == length
                assert language.contains(fast) is member

    def test_e1_languages_at_long_sizes(self):
        # Lengths past every E1 language's period, on one object each.
        for language in _languages():
            fast_rng, slow_rng = random.Random(7), random.Random(7)
            for length in (0, 1, 2049, 16):
                assert language.sample_member(length, fast_rng) == _reference_member(
                    language, length, slow_rng
                )
                assert language.sample_non_member(
                    length, fast_rng
                ) == _reference_non_member(language, length, slow_rng)
            assert fast_rng.getstate() == slow_rng.getstate()


class TestSamplerMemory:
    def test_long_member_allocates_no_set_per_letter(self):
        # The reference walk holds 10**5 frozensets (tens of MB); the
        # periodic walk holds the word being built and one period of sets.
        length = 10**5
        for language in _languages():
            rng = random.Random(1)
            tracemalloc.start()
            try:
                word = language.sample_member(length, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # len%5==2 has no member of length 10**5; the others do.
            assert word is None or len(word) == length
            assert peak < 4 * 2**20, (language.name, peak)
