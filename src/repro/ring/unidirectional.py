"""The unidirectional ring simulator.

In the unidirectional model every message travels CW (``p_i -> p_{i+1}``,
``p_{n-1} -> p_0``) and, because processors are deterministic and message
handling is atomic, *the execution is unique* (paper §2).  The simulator
therefore needs no scheduler: deliveries are processed in global FIFO
order, which is consistent with per-link FIFO and produces the canonical
execution.

The simulator enforces the model:

* a send in the CCW direction raises :class:`ProtocolError`;
* an execution that quiesces without a leader decision raises
  :class:`ProtocolError` (the algorithm must terminate with accept/reject);
* a configurable message cap guards against diverging algorithms.

Scheduling model and complexity
-------------------------------
No scheduler: one global FIFO deque of pending ``(sender, bits)`` pairs,
popped in send order — the unique execution needs nothing else.  Each
delivery costs O(1) simulator overhead on top of the handler's own work,
so an m-message execution is O(m) simulator time.

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace` (O(m) events + local logs);
``run(trace="metrics")`` streams the same accounting into an O(n)-memory
:class:`~repro.ring.trace.TraceStats`.  Counter-only sweeps (E1, E7-E11
and the ``--preset long`` workloads) use metrics mode — and metrics
mode takes the round-batched engine
(:func:`~repro.ring.delivery.run_round_batched` with ``uni=True``):
global FIFO is round-structured, so the engine's sweep order is
exactly this deque's pop order, with identical counters and identical
model-violation errors.  The deque loop runs only for full traces; it
is the oracle (``run(trace="full").stats()`` must equal the metrics
run's counters).
"""

from __future__ import annotations

from collections import deque

from repro.bits import Bits
from repro.errors import ProtocolError, RingError
from repro.ring.delivery import run_round_batched
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.trace import (
    ExecutionTrace,
    MessageEvent,
    TracePolicy,
    TraceStats,
    validate_trace_policy,
)

__all__ = ["UnidirectionalRing", "run_unidirectional"]

_DEFAULT_MESSAGE_CAP = 2_000_000


class UnidirectionalRing:
    """A ring of ``len(word)`` processors executing ``algorithm``.

    ``word[i]`` is the letter of ``p_i``; ``p_0`` is the leader, so the
    pattern read CW starting at the leader is exactly ``word``.
    """

    def __init__(self, algorithm: RingAlgorithm, word: str) -> None:
        if not word:
            raise RingError("a ring needs at least one processor")
        algorithm.validate_word(word)
        self.algorithm = algorithm
        self.word = word
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
        """Execute to quiescence and return the trace or its counters.

        ``trace="full"`` returns the complete :class:`ExecutionTrace`;
        ``trace="metrics"`` streams into an O(n)-memory
        :class:`TraceStats` instead (same counter values, no per-message
        objects).  Raises :class:`ProtocolError` on model violations and
        :class:`RingError` if ``max_messages`` is exceeded (diverging
        algorithm).
        """
        validate_trace_policy(trace)
        n = len(self.word)
        if trace == "metrics":
            # The unique execution is global-FIFO by definition, so
            # metrics-mode runs take the round-batched engine (uni=True:
            # CCW sends raise this simulator's model violation).
            stats = TraceStats(self.word, leader=0)
            run_round_batched(
                self.processors, n, 0, stats, max_messages, uni=True
            )
            return self._decided(stats)
        record = ExecutionTrace(
            word=self.word,
            leader=0,
            local_logs=[[] for _ in range(n)],
        )
        pending: deque[tuple[int, Bits]] = deque()
        delivered = 0

        def enqueue(sender: int, sends) -> None:
            for send in sends:
                if not isinstance(send, Send):
                    raise ProtocolError(f"handlers must yield Send, got {send!r}")
                if send.direction is not Direction.CW:
                    raise ProtocolError(
                        "unidirectional algorithms may only send CW "
                        f"(p_{sender} tried {send.direction})"
                    )
                bits = send.bits if type(send.bits) is Bits else Bits(send.bits)
                record.local_logs[sender].append(("sent", Direction.CW, bits))
                pending.append((sender, bits))
                if len(pending) > record.max_in_flight:
                    record.max_in_flight = len(pending)

        enqueue(0, self.processors[0].on_start())

        while pending:
            if delivered >= max_messages:
                raise RingError(
                    f"exceeded {max_messages} messages on n={n}; "
                    "algorithm appears to diverge"
                )
            sender, bits = pending.popleft()
            receiver = sender + 1 if sender + 1 < n else 0
            record.events.append(
                MessageEvent(
                    index=delivered,
                    sender=sender,
                    receiver=receiver,
                    direction=Direction.CW,
                    bits=bits,
                )
            )
            # A CW message arrives on the receiver's CCW port.
            record.local_logs[receiver].append(("received", Direction.CCW, bits))
            delivered += 1
            responses = self.processors[receiver].on_receive(bits, Direction.CCW)
            enqueue(receiver, responses)

        return self._decided(record)

    def _decided(
        self, record: ExecutionTrace | TraceStats
    ) -> ExecutionTrace | TraceStats:
        """Copy the leader's decision into ``record``; quiescing undecided
        is a model violation."""
        record.decision = self.processors[0].decision
        if record.decision is None:
            raise ProtocolError(
                f"execution of {self.algorithm.name!r} on {self.word!r} "
                "quiesced without a leader decision"
            )
        return record


def run_unidirectional(
    algorithm: RingAlgorithm,
    word: str,
    max_messages: int = _DEFAULT_MESSAGE_CAP,
    trace: TracePolicy = "full",
) -> ExecutionTrace | TraceStats:
    """Convenience wrapper: build the ring and run it."""
    return UnidirectionalRing(algorithm, word).run(
        max_messages=max_messages, trace=trace
    )
