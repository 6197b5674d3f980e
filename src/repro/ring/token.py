"""Token algorithms and the chaotic-to-token serialization (Theorem 5 step 0).

A *token algorithm* keeps at most one message in the network at any time
(paper §5, citing Tiwari & Loui [TL]).  Theorem 5 starts from the fact that
any single-initiator algorithm can be simulated by a token algorithm with
at most a constant-factor blowup in bits.

Two artifacts here:

* :func:`is_token_trace` — decide whether an execution already was a token
  execution (our recognizers all are: they thread a single message around).
* :func:`serialize_to_token` — the simulation, realized as a trace
  transformation.  Deliveries are replayed in their original causal order;
  between consecutive deliveries the token *moves* (one-bit hop messages)
  from the previous receiver to the next sender along the shorter arc, then
  *carries* the payload one hop (one flag bit + payload).  For algorithms
  that are already sequential the token never moves idle, so the overhead
  is exactly one flag bit per message (< 2x); for genuinely chaotic
  algorithms the measured overhead is reported by experiment E5.

  This departs from [TL]'s 3x construction: see SUBSTITUTIONS.md,
  "Theorem 5, token serialization".

Scheduling model and complexity
-------------------------------
The serializer replays deliveries in a causally valid order of its own
choosing: among the *enabled* deliveries (trigger replayed, per-link FIFO
respected) the one whose sender is nearest the token goes next.  The
enabled set is maintained **incrementally** — each delivery enables at most
its causal dependents, and candidates are bucketed per sender position in
small heaps — so choosing the next delivery costs O(log m) plus one bucket
probe per idle hop the token then actually makes.  A serialization of m
deliveries therefore runs in O(m log m + H) time, where H is the number of
idle token hops it emits (H is output, not overhead; it is 0 for the
sequential executions our recognizers produce).  The seed implementation
rescanned every undelivered event per step — O(m^2) — and is kept as
:func:`_delivery_order_scan`, the oracle the scheduler tests pin against.

Trace modes: ``serialize_to_token(trace, trace_policy="full")`` (default)
materializes the :class:`TokenEvent` list; ``trace_policy="metrics"``
streams the same accounting into O(1)-memory :class:`TokenStats` counters.
The input must always be a *full* :class:`ExecutionTrace` — the causal
reconstruction reads individual messages and local logs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Literal

from repro.bits import Bits
from repro.errors import RingError, TokenViolation
from repro.ring.messages import Direction
from repro.ring.trace import ExecutionTrace, TracePolicy, validate_trace_policy

__all__ = [
    "TokenEvent",
    "TokenTrace",
    "TokenStats",
    "is_token_trace",
    "serialize_to_token",
]


@dataclass(frozen=True)
class TokenEvent:
    """One hop of the token: either an idle MOVE or a payload CARRY."""

    kind: Literal["move", "carry"]
    sender: int
    receiver: int
    direction: Direction
    bits: Bits

    @property
    def size(self) -> int:
        """Hop cost in bits."""
        return len(self.bits)


@dataclass
class TokenTrace:
    """Result of serializing an execution into a token execution."""

    original: ExecutionTrace
    events: list[TokenEvent] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        """Bit complexity of the token execution."""
        return sum(event.size for event in self.events)

    @property
    def move_bits(self) -> int:
        """Bits spent on idle token movement."""
        return sum(e.size for e in self.events if e.kind == "move")

    @property
    def carry_bits(self) -> int:
        """Bits spent carrying payloads (flag + payload per delivery)."""
        return sum(e.size for e in self.events if e.kind == "carry")

    @property
    def overhead_ratio(self) -> float:
        """token bits / original bits (>= 1 for non-trivial executions)."""
        original = self.original.total_bits
        if original == 0:
            return 1.0
        return self.total_bits / original

    def payload_events(self) -> list[TokenEvent]:
        """The carry events, in order (one per original delivery)."""
        return [event for event in self.events if event.kind == "carry"]

    def preserves_payloads(self) -> bool:
        """Whether every link-direction carries the original payload sequence.

        The serialization may permute deliveries *across* links (any causal
        order is a valid asynchronous execution) but must preserve each
        link's FIFO payload sequence; this is the correctness criterion
        experiment E5 asserts.
        """

        def per_link(events, payload) -> dict:
            sequences: dict[tuple[int, int, Direction], list[Bits]] = {}
            for event in events:
                key = (event.sender, event.receiver, event.direction)
                sequences.setdefault(key, []).append(payload(event))
            return sequences

        original = per_link(self.original.events, lambda e: e.bits)
        replayed = per_link(self.payload_events(), lambda e: e.bits[1:])
        return original == replayed


@dataclass
class TokenStats:
    """Streaming counters of a token serialization (``trace="metrics"``).

    Same accounting as :class:`TokenTrace` (``total_bits``, ``move_bits``,
    ``carry_bits``, ``overhead_ratio``) without materializing the
    :class:`TokenEvent` list; payload-preservation checks need the full
    variant.
    """

    original_bits: int
    move_bits: int = 0
    carry_bits: int = 0
    move_count: int = 0
    carry_count: int = 0

    @property
    def total_bits(self) -> int:
        """Bit complexity of the token execution."""
        return self.move_bits + self.carry_bits

    @property
    def overhead_ratio(self) -> float:
        """token bits / original bits (>= 1 for non-trivial executions)."""
        if self.original_bits == 0:
            return 1.0
        return self.total_bits / self.original_bits


def is_token_trace(trace: ExecutionTrace) -> bool:
    """Whether the execution kept at most one message in flight."""
    return trace.max_in_flight <= 1


def assert_token_trace(trace: ExecutionTrace) -> None:
    """Raise :class:`TokenViolation` unless the execution was token-style."""
    if not is_token_trace(trace):
        raise TokenViolation(
            f"execution had up to {trace.max_in_flight} messages in flight"
        )


def _shorter_arc(start: int, goal: int, size: int) -> list[tuple[int, int, Direction]]:
    """Hops from ``start`` to ``goal`` along the shorter ring arc.

    Returns ``(sender, receiver, direction)`` triples; CW wins ties.
    """
    if start == goal:
        return []
    cw_distance = (goal - start) % size
    ccw_distance = (start - goal) % size
    direction = Direction.CW if cw_distance <= ccw_distance else Direction.CCW
    hops = []
    position = start
    for _ in range(min(cw_distance, ccw_distance)):
        nxt = direction.step(position, size)
        hops.append((position, nxt, direction))
        position = nxt
    return hops


def _arc_distance(start: int, goal: int, size: int) -> int:
    """Hop count of the shorter arc from ``start`` to ``goal``."""
    cw = (goal - start) % size
    return min(cw, size - cw)


def _compute_triggers(trace: ExecutionTrace) -> list[int | None]:
    """For each delivery event, the index of the delivery that triggered it.

    Reconstructed from the per-processor local logs: a message's "sent"
    entry is triggered by the closest preceding "received" entry in its
    sender's log (None when the send came from the leader's ``on_start``).
    Per-link FIFO maps the k-th delivery on a (sender, direction) link to
    the k-th "sent" entry with that direction in the sender's log, and the
    k-th delivery *to* a processor to its k-th "received" entry.
    """
    n = trace.ring_size
    # Position of each "received" entry in each processor's local log, in
    # delivery order; and the delivery event index it corresponds to.
    receive_log_positions: list[list[int]] = [[] for _ in range(n)]
    receive_event_index: list[list[int]] = [[] for _ in range(n)]
    for node in range(n):
        for position, (kind, _direction, _bits) in enumerate(trace.local_logs[node]):
            if kind == "received":
                receive_log_positions[node].append(position)
    delivered_so_far = [0] * n
    for event in trace.events:
        receive_event_index[event.receiver].append(event.index)
        delivered_so_far[event.receiver] += 1
    # "sent" entries per (sender, direction), in log order.
    sent_positions: dict[tuple[int, Direction], list[int]] = {}
    for node in range(n):
        for position, (kind, direction, _bits) in enumerate(trace.local_logs[node]):
            if kind == "sent":
                sent_positions.setdefault((node, direction), []).append(position)
    link_counters: dict[tuple[int, Direction], int] = {}
    triggers: list[int | None] = []
    for event in trace.events:
        key = (event.sender, event.direction)
        ordinal = link_counters.get(key, 0)
        link_counters[key] = ordinal + 1
        log_position = sent_positions[key][ordinal]
        # Closest preceding receive in the sender's log.  The positions are
        # sorted (log order), so this is a binary search, keeping trigger
        # reconstruction O(m log m) overall.
        trigger: int | None = None
        receive_ordinal = bisect_left(
            receive_log_positions[event.sender], log_position
        )
        if receive_ordinal > 0:
            trigger = receive_event_index[event.sender][receive_ordinal - 1]
        triggers.append(trigger)
    return triggers


def _link_predecessors(trace: ExecutionTrace) -> list[int | None]:
    """Per-link FIFO predecessor for each event (None for a link's first)."""
    previous_on_link: list[int | None] = []
    last_on_link: dict[tuple[int, Direction], int] = {}
    for event in trace.events:
        key = (event.sender, event.direction)
        previous_on_link.append(last_on_link.get(key))
        last_on_link[key] = event.index
    return previous_on_link


class _EnabledSet:
    """The serializer's enabled deliveries, bucketed by sender position.

    One small heap of event indices per ring position; ``pop_nearest``
    walks positions outward from the token (both arcs in lockstep) until a
    non-empty bucket appears, which costs one probe per idle hop the token
    is then charged for anyway, plus O(log m) for the heap pop.  Ties in
    arc distance (the two arcs meet a bucket at the same d) resolve to the
    smaller event index — exactly the ``min`` key of the seed's full scan.
    """

    __slots__ = ("size", "buckets", "count")

    def __init__(self, size: int) -> None:
        self.size = size
        self.buckets: list[list[int]] = [[] for _ in range(size)]
        self.count = 0

    def add(self, event_index: int, sender: int) -> None:
        heapq.heappush(self.buckets[sender], event_index)
        self.count += 1

    def pop_nearest(self, token_at: int) -> int:
        """Remove and return the enabled event minimizing (arc, index)."""
        n = self.size
        buckets = self.buckets
        for distance in range(n // 2 + 1):
            cw = (token_at + distance) % n
            ccw = (token_at - distance) % n
            best_position = -1
            if buckets[cw]:
                best_position = cw
            if ccw != cw and buckets[ccw]:
                if best_position < 0 or buckets[ccw][0] < buckets[best_position][0]:
                    best_position = ccw
            if best_position >= 0:
                self.count -= 1
                return heapq.heappop(buckets[best_position])
        raise RingError("causal reconstruction deadlocked (corrupt trace)")


def _delivery_order_indexed(trace: ExecutionTrace) -> list[int]:
    """Replay order via the incremental enabled-set scheduler (O(m log m + H)).

    Each event waits on at most two prerequisites — its trigger and its
    per-link FIFO predecessor.  Delivering an event decrements the wait
    count of its dependents only, so the enabled set never rescans the
    event list; candidate selection is :meth:`_EnabledSet.pop_nearest`.
    """
    events = trace.events
    size = trace.ring_size
    triggers = _compute_triggers(trace)
    previous_on_link = _link_predecessors(trace)
    waiting = [0] * len(events)
    dependents: list[list[int]] = [[] for _ in range(len(events))]
    for event in events:
        prerequisites = {triggers[event.index], previous_on_link[event.index]}
        prerequisites.discard(None)
        waiting[event.index] = len(prerequisites)
        for prerequisite in prerequisites:
            dependents[prerequisite].append(event.index)

    enabled = _EnabledSet(size)
    for event in events:
        if waiting[event.index] == 0:
            enabled.add(event.index, event.sender)
    order: list[int] = []
    token_at = trace.leader
    for _ in range(len(events)):
        chosen = enabled.pop_nearest(token_at)
        order.append(chosen)
        token_at = events[chosen].receiver
        for dependent in dependents[chosen]:
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                enabled.add(dependent, events[dependent].sender)
    return order


def _delivery_order_scan(trace: ExecutionTrace) -> list[int]:
    """The seed's O(m^2) full-rescan scheduler, kept as the test oracle.

    Rebuilds the enabled set from scratch before every delivery and takes
    the ``(arc distance, index)`` minimum.  The incremental scheduler must
    reproduce this order bit-for-bit
    (``tests/test_token_scheduler.py`` pins the equivalence).
    """
    events = trace.events
    size = trace.ring_size
    triggers = _compute_triggers(trace)
    previous_on_link = _link_predecessors(trace)
    done = [False] * len(events)
    order: list[int] = []
    token_at = trace.leader
    for _ in range(len(events)):
        enabled = [
            event
            for event in events
            if not done[event.index]
            and (triggers[event.index] is None or done[triggers[event.index]])
            and (
                previous_on_link[event.index] is None
                or done[previous_on_link[event.index]]
            )
        ]
        if not enabled:
            raise RingError("causal reconstruction deadlocked (corrupt trace)")
        chosen = min(
            enabled,
            key=lambda e: (_arc_distance(token_at, e.sender, size), e.index),
        )
        order.append(chosen.index)
        token_at = chosen.receiver
        done[chosen.index] = True
    return order


def serialize_to_token(
    trace: ExecutionTrace, trace_policy: TracePolicy = "full"
) -> TokenTrace | TokenStats:
    """Simulate ``trace`` by a token algorithm (see module docstring).

    The deliveries are replayed in a *causally valid* order chosen to keep
    the token busy: among the enabled deliveries (trigger already replayed,
    per-link FIFO respected) the one nearest the token's position goes
    next.  The token moves there with idle 1-bit hops along the shorter
    arc, then carries the payload (1 flag bit + payload).  For sequential
    algorithms the nearest enabled delivery is always at the token, so the
    only overhead is the flag bit; concurrent executions (several enabled
    deliveries at once) pay measured movement, reported by experiment E5.

    The replay order comes from :func:`_delivery_order_indexed`, the
    incrementally maintained enabled-set scheduler; it is guaranteed (and
    tested) to equal the seed's full-rescan order.

    ``trace_policy="metrics"`` returns streaming :class:`TokenStats`
    counters instead of the full :class:`TokenTrace` event list.
    """
    validate_trace_policy(trace_policy)
    full = trace_policy == "full"
    size = trace.ring_size
    if size == 0:
        raise RingError("cannot serialize an empty ring execution")
    result = TokenTrace(original=trace)
    stats = TokenStats(original_bits=trace.total_bits)
    events = trace.events
    token_at = trace.leader
    for index in _delivery_order_indexed(trace):
        chosen = events[index]
        if full:
            for sender, receiver, direction in _shorter_arc(
                token_at, chosen.sender, size
            ):
                result.events.append(
                    TokenEvent(
                        kind="move",
                        sender=sender,
                        receiver=receiver,
                        direction=direction,
                        bits=Bits("0"),
                    )
                )
            result.events.append(
                TokenEvent(
                    kind="carry",
                    sender=chosen.sender,
                    receiver=chosen.receiver,
                    direction=chosen.direction,
                    bits=Bits("1") + chosen.bits,
                )
            )
        else:
            hops = _arc_distance(token_at, chosen.sender, size)
            stats.move_count += hops
            stats.move_bits += hops
            stats.carry_count += 1
            stats.carry_bits += 1 + len(chosen.bits)
        token_at = chosen.receiver
    return result if full else stats
