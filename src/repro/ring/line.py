"""The Theorem 5 ring-to-line execution transformation, and a line network.

Theorem 5 maps every token execution on a ring to an execution on a *line*
of the same processors while preserving the order of the bit complexity:

1. prefix a 0 bit to every message (marks "original"; at most doubles bits);
2. find the link ``l`` carrying the fewest bits;
3. replace every message on ``l`` by ``n - 1`` messages with a leading 1
   bit traveling the *other way around* the ring to the same destination.

Because ``l`` carries at most ``beta / n`` of the ``beta`` total bits, step 3
at most doubles the total again, so the whole transformation multiplies the
bit complexity by at most 4.  The inverse transformation (strip headers,
collapse rerouted chains back onto ``l``) restores the original execution,
which is what the proof's "no processor can tell the difference" step needs.

:class:`LineNetwork` is an actual simulator for processors arranged on a
line (used by the Theorem 7 stage-1 compiler), with the same processor API
as the ring simulators; sends off either end are protocol errors.

Scheduling model and complexity
-------------------------------
:class:`LineNetwork` runs on the same two engines as the bidirectional
ring, picked by the scheduler alone (:func:`~repro.ring.delivery.execute`):
a ``round_batchable`` scheduler (the default FIFO) takes the
round-batched sweep (:func:`~repro.ring.delivery.run_round_batched`,
whole rounds per sweep, no per-delivery scheduling); any other takes
the chooser loop (:func:`~repro.ring.delivery.run_chooser`) over
per-``(sender, direction)`` FIFO queues whose candidate list is sorted
by enqueue stamp and maintained incrementally (q <= 2n, and O(1) for the
sequential algorithms the compiler produces).  Both engines reject a
send off either end at enqueue time.

Trace modes: ``LineNetwork.run(trace="full" | "metrics")`` mirrors the
ring simulators (full :class:`~repro.ring.trace.ExecutionTrace` vs
streaming O(n) :class:`~repro.ring.trace.TraceStats`).  The
:func:`ring_to_line` *transformation* takes the same policy: ``"full"``
materializes every transformed :class:`MessageEvent` — O(m + n*c)
objects when c original messages cross the cut link — while
``"metrics"`` streams the identical accounting into an O(1)
:class:`LineTransformStats` in one O(m) pass over the input trace.  The
input trace itself must be full either way (the transformation rewrites
individual messages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits import Bits
from repro.errors import RingError
from repro.ring.delivery import execute
from repro.ring.messages import Direction
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import FifoScheduler, Scheduler
from repro.ring.trace import (
    ExecutionTrace,
    MessageEvent,
    TracePolicy,
    TraceStats,
    validate_trace_policy,
)

__all__ = [
    "LineTransformResult",
    "LineTransformStats",
    "ring_to_line",
    "restore_from_line",
    "LineNetwork",
]


@dataclass
class LineTransformResult:
    """Outcome of the Theorem 5 transformation.

    ``events`` live on the line: processor ``0`` is the old ``p_{l+1}`` and
    processor ``n-1`` the old ``p_l`` (the cut link's endpoints are the two
    line ends).  ``new_index[i]`` maps old ring indices to line positions.
    """

    original: ExecutionTrace
    cut_link: int
    new_index: list[int]
    events: list[MessageEvent] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        """Bit complexity of the transformed (line) execution."""
        return sum(event.size for event in self.events)

    @property
    def ratio(self) -> float:
        """Transformed bits / original bits (Theorem 5 proves <= 4)."""
        original = self.original.total_bits
        if original == 0:
            return 1.0
        return self.total_bits / original

    def rerouted_messages(self) -> int:
        """How many original messages crossed the cut link."""
        return sum(
            1
            for event in self.original.events
            if event.link(self.original.ring_size) == self.cut_link
        )

    def stats(self) -> "LineTransformStats":
        """Derive the streaming counters from this full result.

        Cross-check bridge: ``ring_to_line(trace, trace_policy="metrics")``
        must equal ``ring_to_line(trace).stats()`` field for field.
        """
        return LineTransformStats(
            original_bits=self.original.total_bits,
            cut_link=self.cut_link,
            total_bits=self.total_bits,
            event_count=len(self.events),
            rerouted=self.rerouted_messages(),
        )


@dataclass
class LineTransformStats:
    """Streaming accounting of a Theorem 5 transformation (``"metrics"``).

    Same ``total_bits`` / ``ratio`` / ``rerouted_messages`` accounting as
    :class:`LineTransformResult` without materializing the transformed
    :class:`MessageEvent` list — O(1) memory instead of O(m + n*c) events
    for c rerouted messages.  Inverting the transformation
    (:func:`restore_from_line`) needs the full variant.
    """

    original_bits: int
    cut_link: int
    total_bits: int = 0
    event_count: int = 0
    rerouted: int = 0

    @property
    def ratio(self) -> float:
        """Transformed bits / original bits (Theorem 5 proves <= 4)."""
        if self.original_bits == 0:
            return 1.0
        return self.total_bits / self.original_bits

    def rerouted_messages(self) -> int:
        """How many original messages crossed the cut link."""
        return self.rerouted


def _choose_cut(trace: ExecutionTrace, cut: int | None) -> int:
    """The cut link: validated override, or the min-tagged-bits link."""
    n = trace.ring_size
    if cut is not None:
        if not 0 <= cut < n:
            raise RingError(f"cut link {cut} outside ring of {n}")
        return cut
    # Step 1 is accounted implicitly: every surviving message below gets a
    # leading 0, every rerouted hop a leading 1.
    tagged_totals = {link: 0 for link in range(n)}
    for event in trace.events:
        tagged_totals[event.link(n)] += event.size + 1
    return min(tagged_totals, key=lambda link: (tagged_totals[link], link))


def ring_to_line(
    trace: ExecutionTrace,
    cut: int | None = None,
    trace_policy: TracePolicy = "full",
) -> LineTransformResult | LineTransformStats:
    """Apply the Theorem 5 transformation to a (token) ring execution.

    ``cut`` overrides the cut-link choice (default: the minimum-bits link
    the proof prescribes).  Overriding exists for the ablation benchmark,
    which shows the <= 4x bound genuinely depends on cutting the lightest
    link.

    ``trace_policy="metrics"`` streams the transformation's accounting
    into :class:`LineTransformStats` (same ``total_bits`` / ``ratio`` /
    ``rerouted_messages`` values) without materializing the transformed
    events; large-n line sweeps should use it.
    """
    validate_trace_policy(trace_policy)
    n = trace.ring_size
    if n < 2:
        raise RingError("the line transformation needs a ring of size >= 2")
    cut = _choose_cut(trace, cut)

    if trace_policy == "metrics":
        stats = LineTransformStats(
            original_bits=trace.total_bits, cut_link=cut
        )
        for event in trace.events:
            if event.link(n) != cut:
                stats.event_count += 1
                stats.total_bits += event.size + 1
            else:
                # The reroute replaces one cut-link message by n-1 tagged
                # hops the other way around.
                stats.rerouted += 1
                stats.event_count += n - 1
                stats.total_bits += (n - 1) * (event.size + 1)
        return stats

    # Renumber: old (cut+1) becomes line position 0, ..., old cut becomes n-1.
    new_index = [(i - (cut + 1)) % n for i in range(n)]

    result = LineTransformResult(
        original=trace, cut_link=cut, new_index=new_index
    )
    for event in trace.events:
        if event.link(n) != cut:
            sender = new_index[event.sender]
            receiver = new_index[event.receiver]
            direction = Direction.CW if receiver == sender + 1 else Direction.CCW
            result.events.append(
                MessageEvent(
                    index=len(result.events),
                    sender=sender,
                    receiver=receiver,
                    direction=direction,
                    bits=Bits("0") + event.bits,
                )
            )
            continue
        # Rerouted: travel the other way around, i.e. along the whole line.
        # Old cut-link message goes between old p_cut (line n-1) and old
        # p_{cut+1} (line 0); the reroute visits every line processor.
        start = new_index[event.sender]
        goal = new_index[event.receiver]
        step = 1 if goal > start else -1
        direction = Direction.CW if step == 1 else Direction.CCW
        position = start
        while position != goal:
            result.events.append(
                MessageEvent(
                    index=len(result.events),
                    sender=position,
                    receiver=position + step,
                    direction=direction,
                    bits=Bits("1") + event.bits,
                )
            )
            position += step
    return result


def restore_from_line(result: LineTransformResult) -> list[MessageEvent]:
    """Invert the transformation (the proof's final step).

    Strips the leading marker bits and collapses each rerouted chain back
    into a single message on the cut link, returning events equal (word for
    word) to the original execution's.
    """
    n = result.original.ring_size
    old_index = [0] * n
    for old, new in enumerate(result.new_index):
        old_index[new] = old
    restored: list[MessageEvent] = []
    chain_remaining = 0
    chain_payload: Bits | None = None
    chain_endpoints: tuple[int, int] | None = None
    for event in result.events:
        marker, payload = event.bits[0], event.bits[1:]
        if marker == 0:
            restored.append(
                MessageEvent(
                    index=len(restored),
                    sender=old_index[event.sender],
                    receiver=old_index[event.receiver],
                    direction=event.direction,
                    bits=payload,
                )
            )
            continue
        if chain_remaining == 0:
            # First hop of a rerouted chain: the chain has n-1 hops total.
            chain_remaining = n - 1
            chain_payload = payload
            origin = old_index[event.sender]
            # Destination is the cut-link neighbor of the origin.
            goal = (
                (origin + 1) % n
                if (origin % n) == result.cut_link
                else (origin - 1) % n
            )
            chain_endpoints = (origin, goal)
        if payload != chain_payload:
            raise RingError("rerouted chain carried inconsistent payloads")
        chain_remaining -= 1
        if chain_remaining == 0:
            assert chain_endpoints is not None and chain_payload is not None
            sender, receiver = chain_endpoints
            direction = (
                Direction.CW if (receiver - sender) % n == 1 else Direction.CCW
            )
            restored.append(
                MessageEvent(
                    index=len(restored),
                    sender=sender,
                    receiver=receiver,
                    direction=direction,
                    bits=chain_payload,
                )
            )
            chain_payload = None
            chain_endpoints = None
    if chain_remaining:
        raise RingError("transformation ended mid-chain")
    return restored


class LineNetwork:
    """Simulator for processors on a line (Theorem 7 stage 1 substrate).

    ``word[i]`` labels line position ``i``; the leader sits at ``leader``
    (default 0).  CW means "toward higher index"; sending CW from the last
    node or CCW from node 0 raises :class:`ProtocolError`.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        word: str,
        leader: int = 0,
        scheduler: Scheduler | None = None,
    ) -> None:
        if not word:
            raise RingError("a line needs at least one processor")
        algorithm.validate_word(word)
        self.algorithm = algorithm
        self.word = word
        self.leader = leader
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.processors: list[Processor] = [
            algorithm.create_processor_positioned(
                letter, is_leader=(index == leader), index=index, size=len(word)
            )
            for index, letter in enumerate(word)
        ]

    def run(
        self, max_messages: int = 2_000_000, trace: TracePolicy = "full"
    ) -> ExecutionTrace | TraceStats:
        """Execute to quiescence; require a leader decision.

        ``trace="metrics"`` streams counters into :class:`TraceStats`
        instead of materializing events and local logs.
        """
        return execute(
            self.processors,
            self.word,
            self.leader,
            self.scheduler,
            max_messages,
            trace,
            self.algorithm.name,
            line=True,
        )
