"""The bidirectional ring simulator.

Both ports of every processor are live: sends may go CW or CCW, links are
FIFO per direction, and the interleaving of deliveries across links is
chosen by a :class:`~repro.ring.schedulers.Scheduler` (the asynchronous
adversary).  Everything else matches the unidirectional simulator: the
leader ``p_0`` initiates, the run ends at quiescence, and the leader must
have decided.

Scheduling model and complexity
-------------------------------
The run picks the delivery engine (:mod:`repro.ring.delivery`); the
rule is the unidirectional ring's, written once for both.

* **Relay walk** (:func:`~repro.ring.delivery.run_relay`) — a
  ``trace="metrics"`` run of an algorithm that declares a
  :class:`~repro.ring.processor.RelayProgram` walks the word, under
  every scheduler.  Such an algorithm keeps exactly one message in
  flight, always CW, so every scheduler sees the same execution (the
  paper's Theorem 6 "follows immediately from Theorem 1").  A scheduler
  that is not ``round_batchable`` is still asked once per delivery,
  with the one-element candidate list the chooser loop would give it,
  so a reused scheduler's state (an RNG, a counter) ends up exactly as
  after the chooser loop, and an out-of-range choice raises the same
  :class:`RingError`.  No processors are built.
* **Round-batched sweep** (:func:`~repro.ring.delivery.run_round_batched`)
  — every other run under a ``round_batchable`` scheduler (the default
  FIFO): whole rounds at a time, no per-delivery scheduler call, no
  dict-keyed queues.
* **Chooser loop** (:func:`~repro.ring.delivery.run_chooser`) — every
  other run under any other scheduler (random, LIFO, adversarial, or a
  FIFO that declines batching): one FIFO queue per ``(sender,
  direction)`` link port, managed by
  :class:`~repro.ring.delivery.LinkQueues`, whose candidate list is
  sorted by head-message age and maintained incrementally (O(log q)
  search + one list shift per delivery for q concurrently active
  queues).  q is bounded by the algorithm's concurrency, **not** by the
  ring size: emptied queues leave the active set immediately.  Under
  FIFO the sweep and the chooser deliver in the same order, so the
  declining FIFO is the sweep's oracle.

Full traces, hand-written processor pairs and multi-token algorithms
never walk; the processors are the walk's oracle
(``tests/test_relay_walk.py``).

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace`; ``run(trace="metrics")``
streams the identical accounting — same scheduler choices, same
execution — into an O(n)-memory :class:`~repro.ring.trace.TraceStats`.
Apart from the walk, the policy picks only the sink: a full trace is
recorded by wrapping the processors, on the sweep or the chooser loop.
"""

from __future__ import annotations

from repro.ring.processor import RingAlgorithm
from repro.ring.schedulers import FifoScheduler, Scheduler
from repro.ring.trace import ExecutionTrace, TracePolicy, TraceStats
from repro.ring.unidirectional import _Ring

__all__ = ["BidirectionalRing", "run_bidirectional"]

_DEFAULT_MESSAGE_CAP = 2_000_000


class BidirectionalRing(_Ring):
    """A bidirectional ring of ``len(word)`` processors.

    ``word[i]`` labels ``p_i``; ``p_0`` is the leader.  ``scheduler``
    resolves asynchrony (default: global-FIFO).  ``processors`` is built
    on first use, so a walked run builds none.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        word: str,
        scheduler: Scheduler | None = None,
    ) -> None:
        super().__init__(algorithm, word)
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()

    def run(
        self,
        max_messages: int = _DEFAULT_MESSAGE_CAP,
        trace: TracePolicy = "full",
    ) -> ExecutionTrace | TraceStats:
        """Execute to quiescence under the scheduler; return the trace.

        ``trace="metrics"`` streams counters into :class:`TraceStats`
        instead of materializing events and local logs (same execution,
        same scheduler choices, O(n) memory); for an algorithm with a
        :meth:`~RingAlgorithm.relay_program` it walks the word.
        """
        return self._run(self.scheduler, max_messages, trace)


def run_bidirectional(
    algorithm: RingAlgorithm,
    word: str,
    scheduler: Scheduler | None = None,
    max_messages: int = _DEFAULT_MESSAGE_CAP,
    trace: TracePolicy = "full",
) -> ExecutionTrace | TraceStats:
    """Convenience wrapper: build the bidirectional ring and run it."""
    return BidirectionalRing(algorithm, word, scheduler).run(
        max_messages=max_messages, trace=trace
    )
