"""Delivery schedulers for the bidirectional ring and the line network.

The paper's model is asynchronous: message transmission takes finite but
arbitrary time, so the adversary chooses the interleaving.  A
:class:`Scheduler` picks which pending delivery happens next; sweeping
schedulers lets experiments check that bit complexity and decisions are
interleaving-independent for the deterministic algorithms studied here
(and lets the Theorem 5 token machinery exhibit worst cases).

Per-link FIFO is enforced by the simulator itself — schedulers only choose
*among links* (each link-direction queue exposes only its head).

For processor-driven runs the scheduler alone picks the delivery engine
(:mod:`repro.ring.delivery`): a ``round_batchable`` one takes the
round-batched sweep, any other the chooser loop, whatever the trace
policy.  A ``trace="metrics"`` run of a single-token relay program walks
the word instead, under every scheduler, and still asks a scheduler that
is not ``round_batchable`` once per delivery.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "AdversarialScheduler",
]


class Scheduler(ABC):
    """Strategy choosing the next delivery among candidate queue heads.

    ``candidates`` is a non-empty sequence of opaque keys, one per
    link-direction with pending traffic, ordered by the enqueue time of the
    head message (oldest first).  Return the index of the chosen candidate.

    ``round_batchable`` declares the scheduler pure global-FIFO *and
    stateless about its choices*: it would always return 0, so runs may
    skip per-delivery scheduling entirely and take the round-batched
    sweep (:func:`repro.ring.delivery.run_round_batched`), which never
    calls ``choose`` at all — on either trace policy.  Any other
    scheduler is asked once per delivery by the chooser loop
    (:func:`repro.ring.delivery.run_chooser`), or by the relay walk
    (:func:`repro.ring.delivery.run_relay`) with the same one-element
    candidate list.  A subclass that
    overrides ``choose``, or a FIFO that observes its own ``choose``
    calls (counters, logging adversaries), must leave
    ``round_batchable`` False to keep seeing every delivery; under FIFO
    the delivery order is identical either way.

    The rule is enforced when a subclass is defined: a class whose own
    body defines ``choose`` while it inherits ``round_batchable = True``
    raises :class:`TypeError` unless the body also sets
    ``round_batchable`` (False to be asked, True to declare the override
    a pure FIFO).
    """

    round_batchable = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if (
            "choose" in cls.__dict__
            and "round_batchable" not in cls.__dict__
            and cls.round_batchable
        ):
            raise TypeError(
                f"{cls.__qualname__} overrides choose() but inherits "
                "round_batchable = True, so choose() would never be called; "
                "set round_batchable in the class body"
            )

    @abstractmethod
    def choose(self, candidates: Sequence[object]) -> int:
        """Index into ``candidates`` of the delivery to perform next."""


class FifoScheduler(Scheduler):
    """Deliver the globally oldest message first (synchronous-like order)."""

    round_batchable = True

    def choose(self, candidates: Sequence[object]) -> int:
        return 0


class LifoScheduler(Scheduler):
    """Deliver the most recently sent available message first."""

    def choose(self, candidates: Sequence[object]) -> int:
        return len(candidates) - 1


class RandomScheduler(Scheduler):
    """Deliver a uniformly random available message (seeded)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, candidates: Sequence[object]) -> int:
        # randrange(n) for n > 0 is _randbelow(n): the same draws, minus
        # the argument checks.  One draw per ask, even for one candidate,
        # so a reused scheduler continues from the same generator state.
        count = len(candidates)
        if not count:
            return self._rng.randrange(0)  # raises randrange's ValueError
        return self._rng._randbelow(count)


class AdversarialScheduler(Scheduler):
    """A simple adaptive adversary: rotate through candidates.

    Cycling the choice point across steps exercises interleavings that
    neither FIFO nor LIFO produce (e.g. alternating progress between the
    two directions of a bidirectional algorithm).
    """

    def __init__(self, stride: int = 1) -> None:
        self._counter = 0
        self._stride = stride

    def choose(self, candidates: Sequence[object]) -> int:
        self._counter += self._stride
        return self._counter % len(candidates)
