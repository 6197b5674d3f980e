"""The bidirectional ring simulator.

Both ports of every processor are live: sends may go CW or CCW, links are
FIFO per direction, and the interleaving of deliveries across links is
chosen by a :class:`~repro.ring.schedulers.Scheduler` (the asynchronous
adversary).  Everything else matches the unidirectional simulator: the
leader ``p_0`` initiates, the run ends at quiescence, and the leader must
have decided.

Scheduling model and complexity
-------------------------------
The scheduler alone picks the delivery engine
(:func:`~repro.ring.delivery.execute`).  A ``round_batchable``
scheduler (the default FIFO) takes the round-batched sweep
(:func:`~repro.ring.delivery.run_round_batched`): whole rounds at a
time, no per-delivery scheduler call, no dict-keyed queues.  Any other
scheduler (random, LIFO, adversarial, or a FIFO that declines batching)
takes the chooser loop (:func:`~repro.ring.delivery.run_chooser`): one
FIFO queue per ``(sender, direction)`` link port, managed by
:class:`~repro.ring.delivery.LinkQueues`, whose candidate list is sorted
by head-message age and maintained incrementally (O(log q) search + one
list shift per delivery for q concurrently active queues).  q is
bounded by the algorithm's concurrency (1 for the sequential
recognizers, so O(1) there), **not** by the ring size: emptied queues
leave the active set immediately.  Under FIFO both engines deliver in
the same order, so the declining FIFO is the sweep's oracle.

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace`; ``run(trace="metrics")``
streams the identical accounting — same engine, same scheduler
choices, same execution — into an O(n)-memory
:class:`~repro.ring.trace.TraceStats`.  The policy picks only the sink:
a full trace is recorded by wrapping the processors, on either engine.
"""

from __future__ import annotations

from repro.errors import RingError
from repro.ring.delivery import execute
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import FifoScheduler, Scheduler
from repro.ring.trace import ExecutionTrace, TracePolicy, TraceStats

__all__ = ["BidirectionalRing", "run_bidirectional"]

_DEFAULT_MESSAGE_CAP = 2_000_000


class BidirectionalRing:
    """A bidirectional ring of ``len(word)`` processors.

    ``word[i]`` labels ``p_i``; ``p_0`` is the leader.  ``scheduler``
    resolves asynchrony (default: global-FIFO).
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        word: str,
        scheduler: Scheduler | None = None,
    ) -> None:
        if not word:
            raise RingError("a ring needs at least one processor")
        algorithm.validate_word(word)
        self.algorithm = algorithm
        self.word = word
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.processors: list[Processor] = [
            algorithm.create_processor_positioned(
                letter, is_leader=(index == 0), index=index, size=len(word)
            )
            for index, letter in enumerate(word)
        ]

    def run(
        self,
        max_messages: int = _DEFAULT_MESSAGE_CAP,
        trace: TracePolicy = "full",
    ) -> ExecutionTrace | TraceStats:
        """Execute to quiescence under the scheduler; return the trace.

        ``trace="metrics"`` streams counters into :class:`TraceStats`
        instead of materializing events and local logs (same execution,
        same scheduler choices, O(n) memory).
        """
        return execute(
            self.processors,
            self.word,
            0,
            self.scheduler,
            max_messages,
            trace,
            self.algorithm.name,
        )


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
