"""Cross-cutting integration and property tests.

The strongest correctness oracle in the library is the collect-everything
recognizer (the leader literally evaluates membership on the reassembled
word).  Every specialized recognizer is cross-checked against it on random
rings; schedulers are swept for invariance; and hypothesis drives the
paper's dichotomy at small scale.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparison import CollectAllRecognizer, CopyRecognizer
from repro.core.counters import BlockCounterRecognizer
from repro.core.hierarchy import HierarchyRecognizer
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
)
from repro.core.regular_onepass import DFARecognizer
from repro.languages import (
    AnBn,
    AnBnCn,
    CopyLanguage,
    PeriodicLanguage,
    STANDARD_GROWTHS,
)
from repro.languages.regular import (
    parity_language,
    substring_language,
    tradeoff_language,
)
from repro.ring import run_bidirectional, run_unidirectional
from repro.ring.schedulers import (
    AdversarialScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
)


def oracle_decision(language, word: str) -> bool:
    """Run the collect-all recognizer as an independent distributed oracle."""
    trace = run_unidirectional(CollectAllRecognizer(language), word)
    return bool(trace.decision)


class TestOracleCrossChecks:
    @pytest.mark.parametrize(
        "language,algorithm",
        [
            (AnBnCn(), BlockCounterRecognizer("012")),
            (AnBn(), BlockCounterRecognizer("ab")),
            (CopyLanguage(), CopyRecognizer()),
        ],
        ids=["anbncn", "anbn", "copy"],
    )
    def test_specialized_equals_oracle(self, language, algorithm, rng):
        for n in range(1, 20):
            words = [
                language.sample_member(n, rng),
                language.sample_non_member(n, rng),
                language.random_word(n, rng),
            ]
            for word in words:
                if not word:
                    continue
                specialized = run_unidirectional(algorithm, word).decision
                assert specialized == oracle_decision(language, word), word

    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    def test_hierarchy_equals_oracle(self, growth, rng):
        language = PeriodicLanguage(growth)
        algorithm = HierarchyRecognizer(language)
        for n in range(2, 16):
            word = language.random_word(n, rng)
            assert (
                run_unidirectional(algorithm, word).decision
                == oracle_decision(language, word)
            ), (growth.name, word)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tradeoff_recognizers_equal_oracle(self, k, rng):
        language = tradeoff_language(k)
        one = OnePassTradeoffRecognizer(language)
        two = TwoPassTradeoffRecognizer(language)
        for n in range(1, 14):
            word = language.random_word(n, rng)
            expected = oracle_decision(language, word)
            assert run_unidirectional(one, word).decision == expected
            assert run_unidirectional(two, word).decision == expected


class TestSchedulerSweep:
    SCHEDULERS = [
        FifoScheduler(),
        LifoScheduler(),
        RandomScheduler(1),
        RandomScheduler(2),
        AdversarialScheduler(1),
        AdversarialScheduler(3),
    ]

    def test_decision_and_bits_invariant(self, rng):
        """Deterministic token algorithms: identical cost under any adversary."""
        language = parity_language()
        from repro.core.regular_bidirectional import BidirectionalDFARecognizer

        algorithm = BidirectionalDFARecognizer(language.dfa)
        for n in [3, 7, 12]:
            word = language.random_word(n, rng)
            reference = run_bidirectional(algorithm, word)
            for scheduler in self.SCHEDULERS:
                trace = run_bidirectional(algorithm, word, scheduler=scheduler)
                assert trace.decision == reference.decision
                assert trace.total_bits == reference.total_bits


class TestDichotomyProperty:
    """Hypothesis-driven form of the paper's main dichotomy at small scale."""

    @given(st.text(alphabet="ab", min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_regular_recognizer_exact_linear_cost(self, word):
        language = substring_language("ab")
        algorithm = DFARecognizer(language.dfa)
        trace = run_unidirectional(algorithm, word)
        assert trace.decision == language.contains(word)
        assert trace.total_bits == algorithm.bits_per_message * len(word)
        assert trace.message_count == len(word)

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_counting_superlinear_cost(self, n):
        from repro.core.counting import CountingAlgorithm, predicted_counting_bits

        algorithm = CountingAlgorithm()
        trace = run_unidirectional(algorithm, "a" * n)
        assert trace.total_bits == predicted_counting_bits(n)
        if n >= 2:
            # Strictly more than any fixed-width linear algorithm could use.
            assert trace.total_bits >= n

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rotation_matters(self, data):
        """The pattern starts at the leader: rotations may change decisions."""
        language = substring_language("ab")
        algorithm = DFARecognizer(language.dfa)
        word = data.draw(st.text(alphabet="ab", min_size=2, max_size=10))
        rotation = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        rotated = word[rotation:] + word[:rotation]
        trace = run_unidirectional(algorithm, rotated)
        assert trace.decision == language.contains(rotated)


class TestSeedStability:
    def test_experiments_are_deterministic(self):
        """Two runs of the same experiment produce identical tables."""
        from repro.experiments import get_spec

        first = get_spec("E11").run(True)
        second = get_spec("E11").run(True)
        assert first.rows == second.rows
        assert first.conclusions == second.conclusions
