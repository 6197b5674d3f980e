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
No scheduler: the unique execution is global FIFO.  The ring picks its
engine (:mod:`repro.ring.delivery`) by itself:

* **Relay walk** (:func:`~repro.ring.delivery.run_relay`) — a
  ``trace="metrics"`` run of an algorithm that declares a single-token
  program (:meth:`~repro.ring.processor.RingAlgorithm.relay_program`:
  one-pass transducers and multipass algorithms) walks the word pass by
  pass, applying the algorithm's step at each position.  No processor
  objects, no :class:`~repro.ring.messages.Send` per message; an
  m-message run is m step calls plus O(n) setup.  The rule and the
  lazy processors live in :class:`_Ring`, which the bidirectional ring
  shares.
* **Round-batched sweep** (:func:`~repro.ring.delivery.run_round_batched`
  with ``uni=True``) — every other run: full traces, and hand-written
  processor pairs on either policy.  Global FIFO is exactly the sweep's
  delivery order (each round's messages precede everything they cause);
  the sweep raises the CCW-send model violation at enqueue time in this
  simulator's wording.  Each delivery costs O(1) simulator overhead on
  top of the handler's own work, so an m-message execution is O(m)
  simulator time.

The two engines agree counter for counter, in the message cap and in
the model errors (``tests/test_relay_walk.py``).  ``processors`` is
built on first use, so a walked run builds none.

Trace modes: ``run(trace="full")`` (default) materializes an
:class:`~repro.ring.trace.ExecutionTrace` (O(m) events + local logs);
``run(trace="metrics")`` streams the same accounting into an O(n)-memory
:class:`~repro.ring.trace.TraceStats`.  Counter-only sweeps (E1, E7-E11
and the ``--preset long`` workloads) use metrics mode.  A full trace is
recorded by wrapping the processors on the sweep
(:func:`~repro.ring.delivery.execute`), because event-level consumers
need the messages and local logs the walk never builds.
"""

from __future__ import annotations

from repro.errors import RingError
from repro.ring.delivery import execute, run_relay
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import Scheduler
from repro.ring.trace import ExecutionTrace, TracePolicy, TraceStats

__all__ = ["UnidirectionalRing", "run_unidirectional"]

_DEFAULT_MESSAGE_CAP = 2_000_000


class _Ring:
    """What both ring simulators share: the word, the processors, the rule.

    ``word[i]`` labels ``p_i``; ``p_0`` is the leader.  ``processors``
    is built on first use, so a walked run builds none.  The rule
    (:meth:`_run`): a ``trace="metrics"`` run of an algorithm with a
    :meth:`~RingAlgorithm.relay_program` walks the word
    (:func:`~repro.ring.delivery.run_relay`); every other run hands the
    processors to :func:`~repro.ring.delivery.execute`.
    """

    def __init__(self, algorithm: RingAlgorithm, word: str) -> None:
        if not word:
            raise RingError("a ring needs at least one processor")
        algorithm.validate_word(word)
        self.algorithm = algorithm
        self.word = word
        self._processors: list[Processor] | None = None

    @property
    def processors(self) -> list[Processor]:
        """One processor per node, built on first use.

        A walked run neither builds nor drives them.
        """
        if self._processors is None:
            word = self.word
            self._processors = [
                self.algorithm.create_processor_positioned(
                    letter, is_leader=(index == 0), index=index, size=len(word)
                )
                for index, letter in enumerate(word)
            ]
        return self._processors

    def _run(
        self,
        scheduler: Scheduler | None,
        max_messages: int,
        trace: TracePolicy,
        uni: bool = False,
    ) -> ExecutionTrace | TraceStats:
        """Walk a metrics run of a relay program; execute any other run."""
        algorithm = self.algorithm
        if trace == "metrics":
            program = algorithm.relay_program()
            if program is not None:
                return run_relay(
                    program, self.word, max_messages, algorithm.name, scheduler
                )
        return execute(
            self.processors,
            self.word,
            0,
            scheduler,
            max_messages,
            trace,
            algorithm.name,
            uni=uni,
        )


class UnidirectionalRing(_Ring):
    """A ring of ``len(word)`` processors executing ``algorithm``.

    ``word[i]`` is the letter of ``p_i``; ``p_0`` is the leader, so the
    pattern read CW starting at the leader is exactly ``word``.
    """

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
        algorithm).  A metrics run of an algorithm with a
        :meth:`~RingAlgorithm.relay_program` walks the word instead of
        running processors.
        """
        return self._run(None, max_messages, trace, uni=True)


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
