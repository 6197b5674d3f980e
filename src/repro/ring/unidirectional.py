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
No scheduler: the unique execution is global FIFO, which is exactly
the round-batched sweep's delivery order
(:func:`~repro.ring.delivery.run_round_batched` with ``uni=True``:
each round's messages precede everything they cause).  The sweep
raises the CCW-send model violation at enqueue time in this
simulator's wording.  Each delivery costs O(1) simulator overhead on
top of the handler's own work, so an m-message execution is O(m)
simulator time.

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace` (O(m) events + local logs);
``run(trace="metrics")`` streams the same accounting into an O(n)-memory
:class:`~repro.ring.trace.TraceStats`.  Counter-only sweeps (E1, E7-E11
and the ``--preset long`` workloads) use metrics mode.  Both modes run
the same sweep; a full trace is recorded by wrapping the processors
(:func:`~repro.ring.delivery.execute`).
"""

from __future__ import annotations

from repro.errors import RingError
from repro.ring.delivery import execute
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.trace import ExecutionTrace, TracePolicy, TraceStats

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
        return execute(
            self.processors,
            self.word,
            0,
            None,
            max_messages,
            trace,
            self.algorithm.name,
            uni=True,
        )


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
