"""The bidirectional ring simulator.

Both ports of every processor are live: sends may go CW or CCW, links are
FIFO per direction, and the interleaving of deliveries across links is
chosen by a :class:`~repro.ring.schedulers.Scheduler` (the asynchronous
adversary).  Everything else matches the unidirectional simulator: the
leader ``p_0`` initiates, the run ends at quiescence, and the leader must
have decided.

Scheduling model and complexity
-------------------------------
One FIFO queue per ``(sender, direction)`` link port, managed by
:class:`~repro.ring.delivery.LinkQueues`.  Under a ``head_only``
scheduler (the default FIFO) the active queues sit in an age-ordered
heap and each delivery costs O(log q) for q concurrently active queues;
schedulers that inspect the whole candidate list (random, LIFO,
adversarial) get it sorted by head-message age, maintained
incrementally (O(log q) search + one list shift per delivery).  Either
way q is bounded by the algorithm's concurrency (1 for the sequential
recognizers, so O(1) there), **not** by the ring size: emptied queues
leave the active set immediately.

When the scheduler is additionally ``round_batchable`` (the default
FIFO) and the run streams ``trace="metrics"``, the whole loop is
replaced by the round-batched engine
(:func:`~repro.ring.delivery.run_round_batched`): identical delivery
order and accounting, but whole rounds swept at a time with no heap,
no dict-keyed queues, and no per-delivery scheduler call.  The run
batches if and only if both hold; a full trace, or a FIFO scheduler
that declines batching, takes the heap loop, which is the oracle.

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace`; ``run(trace="metrics")``
streams the identical accounting — same scheduler choices, same
execution — into an O(n)-memory :class:`~repro.ring.trace.TraceStats`.
"""

from __future__ import annotations

from repro.bits import Bits
from repro.errors import ProtocolError, RingError
from repro.ring.delivery import LinkQueues, run_round_batched
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import FifoScheduler, Scheduler
from repro.ring.trace import (
    ExecutionTrace,
    MessageEvent,
    TracePolicy,
    TraceStats,
    validate_trace_policy,
)

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
        validate_trace_policy(trace)
        n = len(self.word)
        full = trace == "full"
        record: ExecutionTrace | TraceStats
        if full:
            record = ExecutionTrace(
                word=self.word,
                leader=0,
                local_logs=[[] for _ in range(n)],
            )
        else:
            record = TraceStats(self.word, leader=0)
            if self.scheduler.round_batchable:
                # Pure global-FIFO + streaming counters: take the
                # round-batched engine (no heap, no per-delivery
                # scheduling — identical order and accounting).
                run_round_batched(
                    self.processors, n, 0, record, max_messages, line=False
                )
                record.decision = self.processors[0].decision
                if record.decision is None:
                    raise ProtocolError(
                        f"execution of {self.algorithm.name!r} on "
                        f"{self.word!r} quiesced without a leader decision"
                    )
                return record
        # Pending deliveries, age-ordered: a heap of active queues under
        # the head-only (FIFO) scheduler, the sorted candidate list for
        # schedulers that inspect everything.  See repro.ring.delivery.
        pending = LinkQueues(use_heap=self.scheduler.head_only)
        delivered = 0

        def enqueue(sender: int, sends) -> None:
            for send in sends:
                if not isinstance(send, Send):
                    raise ProtocolError(f"handlers must yield Send, got {send!r}")
                bits = send.bits if type(send.bits) is Bits else Bits(send.bits)
                if full:
                    record.local_logs[sender].append(("sent", send.direction, bits))
                pending.push((sender, send.direction), bits)

        enqueue(0, self.processors[0].on_start())

        while True:
            candidates = pending.next_candidates()
            if candidates is None:
                break
            if delivered >= max_messages:
                raise RingError(
                    f"exceeded {max_messages} messages on n={n}; "
                    "algorithm appears to diverge"
                )
            chosen = self.scheduler.choose(candidates)
            if not 0 <= chosen < len(candidates):
                raise RingError(
                    f"scheduler chose index {chosen} out of "
                    f"{len(candidates)} candidates"
                )
            sender, direction = candidates[chosen]
            bits = pending.pop((sender, direction))
            receiver = direction.step(sender, n)
            if full:
                record.events.append(
                    MessageEvent(
                        index=delivered,
                        sender=sender,
                        receiver=receiver,
                        direction=direction,
                        bits=bits,
                    )
                )
            else:
                record.record(sender, receiver, direction, len(bits))
            delivered += 1
            arrived_from = direction.opposite()
            if full:
                record.local_logs[receiver].append(("received", arrived_from, bits))
            responses = self.processors[receiver].on_receive(bits, arrived_from)
            enqueue(receiver, responses)

        record.max_in_flight = pending.peak_in_flight
        record.decision = self.processors[0].decision
        if record.decision is None:
            raise ProtocolError(
                f"execution of {self.algorithm.name!r} on {self.word!r} "
                "quiesced without a leader decision"
            )
        return record


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
