"""Execution traces, bit accounting, and information states.

An execution (paper §2) is the sequence of messages sent; its bit
complexity is the sum of message lengths.  :class:`ExecutionTrace` records
the delivered messages in order together with enough structure to compute
everything the paper's proofs look at:

* per-link bit totals (the Theorem 5 transformation cuts the min-bit link);
* the pass decomposition of unidirectional executions (``pass_A(w)``);
* the **information state** of each processor — its initial letter plus the
  chronological sequence of messages it sent or received, with directions
  (paper §4).  Theorem 4/5's counting argument is about how many *distinct*
  information states an execution must produce.

Trace policies
--------------
Materializing a :class:`MessageEvent` per delivery plus per-processor
``local_logs`` costs O(total messages) memory and allocator time, which is
what a Θ(n²)-bit sweep actually pays for.  Every simulator therefore takes
a ``trace`` policy:

* ``trace="full"`` (default) — build the complete :class:`ExecutionTrace`;
  needed by consumers that inspect individual messages or information
  states (message graphs, Theorem 4/5 arguments, the Theorem 5 and token
  transformations).
* ``trace="metrics"`` — stream every delivery into a :class:`TraceStats`:
  total bits, message count, per-link bit totals, per-processor send
  counts, per-pass bit totals, ``max_in_flight`` and the decision, in O(n)
  memory.  The counters are *defined* to agree bit-for-bit with the values
  derived from a full trace of the same execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

from repro.bits import Bits
from repro.errors import RingError
from repro.ring.messages import Direction

__all__ = ["MessageEvent", "InformationState", "ExecutionTrace", "TraceStats"]

TracePolicy = Literal["full", "metrics"]


def validate_trace_policy(policy: str) -> None:
    """Raise :class:`RingError` unless ``policy`` is a known trace policy."""
    if policy not in ("full", "metrics"):
        raise RingError(
            f"unknown trace policy {policy!r}; expected 'full' or 'metrics'"
        )

EventKind = Literal["sent", "received"]


@dataclass(frozen=True)
class MessageEvent:
    """One delivered message.

    ``index`` is the global delivery order (0-based).  ``sender`` and
    ``receiver`` are node indices; ``direction`` is the travel direction
    (CW means receiver = sender+1 mod n).
    """

    index: int
    sender: int
    receiver: int
    direction: Direction
    bits: Bits

    @property
    def size(self) -> int:
        """Message length in bits."""
        return len(self.bits)

    def link(self, ring_size: int) -> int:
        """Undirected link id: ``i`` for the link between ``p_i`` and
        ``p_{i+1 mod n}``."""
        if self.direction is Direction.CW:
            return self.sender
        return self.receiver


@dataclass(frozen=True)
class InformationState:
    """A processor's knowledge after an execution (paper §4).

    ``letter`` is its input; ``events`` the chronological tuple of
    ``(kind, direction, bits)`` entries where kind is ``"sent"`` or
    ``"received"`` and direction is the port used.
    """

    letter: str
    events: tuple[tuple[EventKind, Direction, Bits], ...]

    @property
    def bit_size(self) -> int:
        """Total bits across the state's message entries."""
        return sum(len(bits) for _, _, bits in self.events)

    @property
    def message_count(self) -> int:
        """Number of sent/received entries."""
        return len(self.events)

    def sent(self, direction: Direction | None = None) -> tuple[Bits, ...]:
        """Messages this processor sent (optionally filtered by port)."""
        return tuple(
            bits
            for kind, port, bits in self.events
            if kind == "sent" and (direction is None or port is direction)
        )

    def received(self, direction: Direction | None = None) -> tuple[Bits, ...]:
        """Messages this processor received (optionally filtered by port)."""
        return tuple(
            bits
            for kind, port, bits in self.events
            if kind == "received" and (direction is None or port is direction)
        )


@dataclass
class ExecutionTrace:
    """Complete record of one ring execution."""

    word: str
    leader: int
    events: list[MessageEvent] = field(default_factory=list)
    decision: bool | None = None
    max_in_flight: int = 0
    local_logs: list[list[tuple[EventKind, Direction, Bits]]] = field(
        default_factory=list
    )

    @property
    def ring_size(self) -> int:
        """Number of processors (= pattern length)."""
        return len(self.word)

    # ------------------------------------------------------------------
    # Bit accounting
    # ------------------------------------------------------------------

    @property
    def total_bits(self) -> int:
        """The execution's bit complexity: sum of all message lengths."""
        return sum(event.size for event in self.events)

    @property
    def message_count(self) -> int:
        """Number of messages sent."""
        return len(self.events)

    def bits_per_link(self) -> dict[int, int]:
        """Total bits per undirected link (both directions combined)."""
        totals = {link: 0 for link in range(self.ring_size)}
        for event in self.events:
            totals[event.link(self.ring_size)] += event.size
        return totals

    def min_bits_link(self) -> int:
        """The link carrying the fewest bits (Theorem 5's cut link).

        Ties break toward the smallest link id, which keeps the
        transformation deterministic.
        """
        totals = self.bits_per_link()
        return min(totals, key=lambda link: (totals[link], link))

    def messages_per_processor(self) -> list[int]:
        """Sent-message count per node — sup over nodes is the paper's pi_A."""
        counts = [0] * self.ring_size
        for event in self.events:
            counts[event.sender] += 1
        return counts

    # ------------------------------------------------------------------
    # Pass structure (unidirectional executions)
    # ------------------------------------------------------------------

    def passes(self) -> list[list[MessageEvent]]:
        """Chunk the event sequence into passes of ``n`` messages each.

        Matches the paper's ``pass_A(w)`` for unidirectional round-robin
        algorithms, where each pass starts with a message sent by the
        leader and visits every node once.
        """
        n = self.ring_size
        if n == 0:
            return []
        return [self.events[i : i + n] for i in range(0, len(self.events), n)]

    def pass_count(self) -> int:
        """Number of (possibly partial) passes."""
        n = self.ring_size
        if n == 0:
            return 0
        return -(-len(self.events) // n)

    def bits_of_pass(self, index: int) -> int:
        """Total bits of the ``index``-th pass."""
        chunks = self.passes()
        if not 0 <= index < len(chunks):
            raise RingError(f"no pass {index} in a {len(chunks)}-pass execution")
        return sum(event.size for event in chunks[index])

    # ------------------------------------------------------------------
    # Information states
    # ------------------------------------------------------------------

    def information_state(self, node: int) -> InformationState:
        """The information state of ``p_node`` at termination."""
        if not 0 <= node < self.ring_size:
            raise RingError(f"no processor {node} in a ring of {self.ring_size}")
        return InformationState(self.word[node], tuple(self.local_logs[node]))

    def information_states(self) -> list[InformationState]:
        """Information states of all processors, by index."""
        return [self.information_state(i) for i in range(self.ring_size)]

    def distinct_information_states(self) -> int:
        """Number of distinct terminal information states."""
        return len(set(self.information_states()))

    def processors_sharing_state(self) -> dict[InformationState, list[int]]:
        """Group processor indices by identical information state."""
        groups: dict[InformationState, list[int]] = {}
        for index, state in enumerate(self.information_states()):
            groups.setdefault(state, []).append(index)
        return groups

    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[MessageEvent]:
        return iter(self.events)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.ring_size} messages={self.message_count} "
            f"bits={self.total_bits} decision={self.decision} "
            f"passes={self.pass_count()}"
        )

    def stats(self) -> "TraceStats":
        """Derive the streaming counters from this full trace.

        Used by cross-check tests: ``run(trace="metrics")`` must equal
        ``run(trace="full").stats()`` field for field.
        """
        stats = TraceStats(self.word, self.leader)
        for event in self.events:
            stats.record(event.sender, event.receiver, event.direction, event.size)
        stats.max_in_flight = self.max_in_flight
        stats.decision = self.decision
        return stats


class TraceStats:
    """Streaming, O(n)-memory accounting of one execution (``trace="metrics"``).

    Exposes the counter-shaped subset of the :class:`ExecutionTrace` API
    (``total_bits``, ``message_count``, ``bits_per_link``, ``min_bits_link``,
    ``messages_per_processor``, ``pass_count``, ``bits_of_pass``,
    ``max_in_flight``, ``decision``) with identical values, but never
    materializes :class:`MessageEvent` objects or per-processor logs.
    Message-level consumers (information states, message graphs, the
    Theorem 5 / token transformations) need ``trace="full"``.

    ``engine`` names the delivery engine that produced the counters
    (``"sweep"``, ``"chooser"`` or ``"walk"``; see
    :mod:`repro.ring.delivery`), or None for counters derived from a
    full trace.  It is provenance, not part of the execution.
    """

    __slots__ = (
        "word",
        "leader",
        "total_bits",
        "message_count",
        "link_bits",
        "sent_counts",
        "pass_bits",
        "max_in_flight",
        "decision",
        "engine",
    )

    def __init__(self, word: str, leader: int = 0) -> None:
        self.word = word
        self.leader = leader
        self.total_bits = 0
        self.message_count = 0
        self.link_bits: list[int] = [0] * len(word)
        self.sent_counts: list[int] = [0] * len(word)
        self.pass_bits: list[int] = []
        self.max_in_flight = 0
        self.decision: bool | None = None
        self.engine: str | None = None

    @property
    def ring_size(self) -> int:
        """Number of processors (= pattern length)."""
        return len(self.word)

    def record(
        self, sender: int, receiver: int, direction: Direction, size: int
    ) -> None:
        """Account one delivered message (simulator hot path)."""
        index = self.message_count
        self.message_count = index + 1
        self.total_bits += size
        # Undirected link id, matching MessageEvent.link(): the link between
        # p_i and p_{i+1} is i, so CW messages charge the sender's id and
        # CCW messages the receiver's.
        link = sender if direction is Direction.CW else receiver
        self.link_bits[link] += size
        self.sent_counts[sender] += 1
        pass_index = index // len(self.word)
        if pass_index == len(self.pass_bits):
            self.pass_bits.append(size)
        else:
            self.pass_bits[pass_index] += size

    # -- ExecutionTrace-compatible accessors ---------------------------------

    def bits_per_link(self) -> dict[int, int]:
        """Total bits per undirected link (both directions combined)."""
        return dict(enumerate(self.link_bits))

    def min_bits_link(self) -> int:
        """The link carrying the fewest bits (ties toward the smallest id)."""
        return min(
            range(self.ring_size), key=lambda link: (self.link_bits[link], link)
        )

    def messages_per_processor(self) -> list[int]:
        """Sent-message count per node — sup over nodes is the paper's pi_A."""
        return list(self.sent_counts)

    def pass_count(self) -> int:
        """Number of (possibly partial) passes."""
        return len(self.pass_bits)

    def bits_of_pass(self, index: int) -> int:
        """Total bits of the ``index``-th pass."""
        if not 0 <= index < len(self.pass_bits):
            raise RingError(
                f"no pass {index} in a {len(self.pass_bits)}-pass execution"
            )
        return self.pass_bits[index]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.ring_size} messages={self.message_count} "
            f"bits={self.total_bits} decision={self.decision} "
            f"passes={self.pass_count()}"
        )

    def __repr__(self) -> str:
        return f"TraceStats({self.summary()})"
