"""``Scheduler.ask_each``: a run of one-candidate asks, made at once.

The relay walk asks for a walked pass's follower deliveries in one
``ask_each(codes)`` call.  Its promise is the ``choose([code])`` loop's
outcome: the same scheduler state afterwards, every candidate list
shown in order to a scheduler that looks, and the chooser loop's error
at the first answer other than 0.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RingError
from repro.ring.schedulers import (
    AdversarialScheduler,
    LifoScheduler,
    RandomScheduler,
    Scheduler,
)


def _loop(scheduler: Scheduler, codes) -> None:
    """What ``ask_each`` promises to equal: one ``choose([code])`` per code."""
    for code in codes:
        assert scheduler.choose([code]) == 0


class _Recording(Scheduler):
    def __init__(self) -> None:
        self.seen: list[list] = []

    def choose(self, candidates):
        self.seen.append(list(candidates))
        return 0


class _RecordingRandom(RandomScheduler):
    """A RandomScheduler subclass that overrides ``choose``."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.seen: list[list] = []

    def choose(self, candidates):
        self.seen.append(list(candidates))
        return super().choose(candidates)


class _RecordingAdversary(AdversarialScheduler):
    def __init__(self, stride: int) -> None:
        super().__init__(stride)
        self.seen: list[list] = []

    def choose(self, candidates):
        self.seen.append(list(candidates))
        return super().choose(candidates)


class _CountingRandbelow(random.Random):
    """A generator with its own ``_randbelow``: it must still be called."""

    calls = 0

    def _randbelow(self, n):
        type(self).calls += 1
        return super()._randbelow(n)


class _OwnRandom(random.Random):
    """Overrides ``random()`` only, so Python gives it the float-based
    ``_randbelow``, which draws no ``getrandbits``."""

    def random(self):
        return super().random()


class TestRandomScheduler:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_draws_leave_the_loops_state(self, seed, count):
        codes = range(1, 2 * count, 2)
        bulk, loop = RandomScheduler(seed), RandomScheduler(seed)
        bulk.ask_each(codes)
        _loop(loop, codes)
        assert bulk._rng.getstate() == loop._rng.getstate()
        # ... and a reused scheduler goes on to make the same choices.
        assert bulk.choose(range(7)) == loop.choose(range(7))

    def test_zero_codes_draw_nothing(self):
        scheduler = RandomScheduler(3)
        before = scheduler._rng.getstate()
        scheduler.ask_each(range(1, 1, 2))
        assert scheduler._rng.getstate() == before

    def test_a_generator_with_its_own_randbelow_keeps_it(self):
        scheduler = RandomScheduler(4)
        scheduler._rng = _CountingRandbelow(4)
        _CountingRandbelow.calls = 0
        scheduler.ask_each(range(1, 11, 2))
        assert _CountingRandbelow.calls == 5

    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_a_non_stock_generator_leaves_the_loops_state(self, count):
        codes = range(1, 2 * count, 2)
        bulk, loop = RandomScheduler(0), RandomScheduler(0)
        bulk._rng, loop._rng = _OwnRandom(8), _OwnRandom(8)
        bulk.ask_each(codes)
        _loop(loop, codes)
        assert bulk._rng.getstate() == loop._rng.getstate()


class TestEveryListInOrder:
    CODES = range(1, 15, 2)

    def test_recording_scheduler(self):
        scheduler = _Recording()
        scheduler.ask_each(self.CODES)
        assert scheduler.seen == [[code] for code in self.CODES]

    def test_random_subclass_overriding_choose(self):
        bulk, loop = _RecordingRandom(5), _RecordingRandom(5)
        bulk.ask_each(self.CODES)
        _loop(loop, self.CODES)
        assert bulk.seen == [[code] for code in self.CODES] == loop.seen
        assert bulk._rng.getstate() == loop._rng.getstate()

    @pytest.mark.parametrize("stride", [1, 3])
    def test_adversarial_scheduler(self, stride):
        bulk, loop = _RecordingAdversary(stride), _RecordingAdversary(stride)
        bulk.ask_each(self.CODES)
        _loop(loop, self.CODES)
        assert bulk.seen == [[code] for code in self.CODES] == loop.seen
        assert bulk._counter == loop._counter == stride * len(self.CODES)

    def test_lifo_answers_zero(self):
        LifoScheduler().ask_each(self.CODES)  # len([code]) - 1 == 0


class _Answers(Scheduler):
    def __init__(self, answers) -> None:
        self.answers = list(answers)
        self.calls = 0

    def choose(self, candidates):
        self.calls += 1
        return self.answers.pop(0)


class TestBadAnswers:
    @pytest.mark.parametrize("answer", [1, -1, 2])
    def test_the_chooser_loops_error(self, answer):
        scheduler = _Answers([0, 0, answer, 0])
        with pytest.raises(RingError) as raised:
            scheduler.ask_each(range(1, 9, 2))
        assert str(raised.value) == (
            f"scheduler chose index {answer} out of 1 candidates"
        )
        assert scheduler.calls == 3  # stopped at the bad answer
