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
is not ``round_batchable`` once per delivery — a walked pass's follower
deliveries through one :meth:`Scheduler.ask_each` call.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from repro.ring.delivery import _choice_error

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "AdversarialScheduler",
]

# CPython's stock ``_randbelow(n)`` draws ``getrandbits(n.bit_length())``
# until the draw is below ``n``: for ``n = 1``, ``getrandbits(1)`` until 0.
_STOCK_RANDBELOW = getattr(random.Random, "_randbelow_with_getrandbits", None)


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

    :meth:`ask_each` asks for a run of one-candidate deliveries at once
    (the relay walk's walked passes).  Its promise: the scheduler ends
    in the state, and raises the error, that asking ``choose([code])``
    for each code in order and rejecting any answer but 0 would give.
    An override must keep that promise; the default is that loop.
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

    def ask_each(self, codes: Iterable[object]) -> None:
        """Ask ``choose([code])`` for each code, in order.

        Raises the chooser loop's :class:`~repro.errors.RingError` at the
        first answer outside the one-element list.
        """
        choose = self.choose
        for code in codes:
            chosen = choose([code])
            if not 0 <= chosen < 1:
                raise _choice_error(chosen, 1)


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

    def ask_each(self, codes: Iterable[object]) -> None:
        """``choose([code])``'s draw per code: ``_randbelow(1)``, always 0.

        On a stock generator that draw is ``getrandbits(1)`` until 0,
        made inline here; a subclass that overrides ``choose``, or a
        generator with its own ``_randbelow``, is asked the long way.
        """
        rng = self._rng
        if (
            type(self).choose is not RandomScheduler.choose
            or _STOCK_RANDBELOW is None
            or getattr(type(rng), "_randbelow", None) is not _STOCK_RANDBELOW
        ):
            return super().ask_each(codes)
        getrandbits = rng.getrandbits
        for _ in codes:
            while getrandbits(1):
                pass


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
