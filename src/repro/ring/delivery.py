"""Pending-delivery machinery for the asynchronous simulators.

The bidirectional ring and the line network both keep one FIFO queue per
``(sender, direction)`` link port and, before every delivery, present the
*active* (non-empty) queues to a scheduler in age order of their head
messages.  This module owns that machinery, at three cost tiers:

* **Round-batched engine** (:func:`run_round_batched`) — when the
  scheduler is ``round_batchable`` (pure global-FIFO, never needs its
  ``choose`` consulted — true of the default :class:`FifoScheduler`) and
  the run streams ``trace="metrics"``, the simulator skips per-delivery
  scheduling altogether.  Under global FIFO the delivery order *is* the
  enqueue-stamp order: each queue is FIFO, so every queue head is its
  queue's minimum stamp, and the globally oldest head is the globally
  oldest in-flight message.  The protocols are therefore round-structured
  — every message enqueued before a round boundary is delivered before
  any message it causes — and the engine sweeps whole rounds at a time
  over packed parallel lists (an int code ``sender<<1 | is_cw`` next to
  the payload), folding the :class:`~repro.ring.trace.TraceStats`
  counters into flat local tables and writing them back once at
  quiescence.  No heap, no per-queue dict hashing, no ``Scheduler.choose``
  call, no per-message method dispatch: one tight loop per round.  The
  engine picks itself: a run batches if and only if its scheduler is
  ``round_batchable`` and it streams ``trace="metrics"`` — there is no
  switch.  The accounting is bit-for-bit identical to the heap path
  below, which stays the oracle: a ``trace="full"`` run (whose
  ``ExecutionTrace.stats()`` must equal the batched counters) or a FIFO
  scheduler that declines batching reaches it
  (``tests/test_delivery_batch.py`` pins the equivalence).
  The unidirectional ring rides the same engine (``uni=True``): it has
  no scheduler at all — its global FIFO deque *is* the engine's
  delivery order — so its metrics-mode runs sweep rounds too, with the
  CCW-send model violation raised at enqueue time in that simulator's
  exact wording.
* **Heap path** — when the scheduler only ever consumes the oldest head
  (``Scheduler.head_only``) but the run needs full traces (or the
  scheduler declines batching), the active queues live in a min-heap keyed by
  head enqueue stamp: each delivery peeks/pops the top and pushes the
  queue's next head — O(log q) for q concurrently active queues; see
  ``benchmarks/bench_bidi_delivery.py`` and PERFORMANCE.md.
* **Sorted path** — schedulers that inspect the full candidate list
  (random, LIFO, adversarial) get the age-sorted active list.  It is
  maintained *incrementally*: a push to an idle queue appends the
  newest stamp (monotonic, so always the tail), and a pop bisects the
  retired head out and bisect-inserts the successor head — O(log q)
  search plus one O(q) list shift per delivery, instead of rebuilding
  and sorting every active queue (O(q log q)) per delivery.

Delivery order is identical on all paths: enqueue stamps are unique, so
"heap minimum", "first element of the sorted candidate list", and "next
message of the current round sweep" all name the same message.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.bits import Bits
from repro.errors import ProtocolError, RingError
from repro.ring.messages import Direction, Send

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ring.processor import Processor
    from repro.ring.trace import TraceStats

__all__ = ["LinkQueues", "run_round_batched"]


def run_round_batched(
    processors: "Sequence[Processor]",
    n: int,
    leader: int,
    record: "TraceStats",
    max_messages: int,
    line: bool = False,
    uni: bool = False,
) -> None:
    """Execute to quiescence in round-batched sweeps (global-FIFO order).

    Drives ``processors`` exactly like the simulators' heap loop under a
    ``round_batchable`` scheduler, but delivers every message enqueued
    before the current round boundary in one pass: the round's messages
    live in two packed parallel lists (int code ``sender << 1 | is_cw``
    and the ``Bits`` payload), responses accumulate into the next
    round's lists, and the :class:`TraceStats` counters fold through
    flat local tables written back to ``record`` once at quiescence.
    The caller still owns the decision check (and sets
    ``record.decision``); ``record.max_in_flight`` is written here.

    ``line=True`` selects line topology: neighbor tables stop at the
    ends and a send off either end raises :class:`ProtocolError` at
    enqueue time, exactly like ``LineNetwork``'s ``enqueue`` validator.
    ``uni=True`` selects the unidirectional model: the ring wraps, but
    any CCW send raises :class:`ProtocolError` at enqueue time with
    ``UnidirectionalRing``'s exact wording — that simulator's global
    FIFO deque is already the engine's delivery order (each round's
    messages precede everything they cause), so the sweep is a drop-in
    for its metrics loop.
    The message cap matches the heap loop's raise/no-raise decision: it
    trips exactly when deliveries would exceed ``max_messages`` with
    traffic still pending (checked per round — the cap can only be
    crossed mid-round).
    """
    cw = Direction.CW
    ccw = Direction.CCW
    # Flat per-code lookup tables, indexed by the packed message code
    # ``sender << 1 | is_cw`` — no dict hashing, no modulo, no branch on
    # direction in the sweep.  On a line the off-the-end entries exist
    # but are unreachable: sends toward an end are rejected at enqueue.
    if line:
        next_cw = list(range(1, n + 1))
        next_ccw = list(range(-1, n - 1))
        cw_forbidden = n - 1  # sending CW from the last node falls off
        ccw_forbidden = 0  # sending CCW from node 0 falls off
    else:
        next_cw = list(range(1, n)) + [0]
        next_ccw = [n - 1] + list(range(n - 1))
        cw_forbidden = ccw_forbidden = -1  # no index matches: ring wraps
    handler_of: list = [None] * (2 * n)  # receiver's bound on_receive
    receiver_of = [0] * (2 * n)
    arrived_of: list[Direction] = [cw] * (2 * n)
    link_of = [0] * (2 * n)  # undirected link id charged by this code
    for s in range(n):
        even = s << 1  # CCW from s
        odd = even | 1  # CW from s
        r_ccw = next_ccw[s]
        r_cw = next_cw[s]
        if 0 <= r_ccw < n:
            handler_of[even] = processors[r_ccw].on_receive
            receiver_of[even] = r_ccw
        link_of[even] = r_ccw  # CCW charges the receiver's link id
        arrived_of[even] = cw
        if 0 <= r_cw < n:
            handler_of[odd] = processors[r_cw].on_receive
            receiver_of[odd] = r_cw
        link_of[odd] = s  # CW charges the sender's link id
        arrived_of[odd] = ccw

    # TraceStats counters, folded locally: per-code flat tables summed
    # into the per-node/per-link shape once at write-back.
    bits_by_code = [0] * (2 * n)
    sent_by_code = [0] * (2 * n)
    pass_bits: list[int] = []
    delivered = 0
    pass_acc = 0
    in_pass = 0
    in_flight = 0
    peak = 0

    # The current round, packed: codes[i] = sender << 1 | (1 if CW) next
    # to its payload.  zip() reuses its result tuple in CPython, so the
    # sweep below allocates nothing per message beyond the responses.
    codes: list[int] = []
    loads: list[Bits] = []

    # Seed round 0 from the leader's on_start, with the same validation
    # and in-flight accounting as the per-message enqueue below.
    for send in processors[leader].on_start():
        if not isinstance(send, Send):
            raise ProtocolError(f"handlers must yield Send, got {send!r}")
        direction, bits = send
        if direction is cw:
            if leader == cw_forbidden:
                raise ProtocolError(
                    f"p_{leader} sent {direction} off the end of the line"
                )
            codes.append((leader << 1) | 1)
        else:
            if uni:
                raise ProtocolError(
                    "unidirectional algorithms may only send CW "
                    f"(p_{leader} tried {direction})"
                )
            if leader == ccw_forbidden:
                raise ProtocolError(
                    f"p_{leader} sent {direction} off the end of the line"
                )
            codes.append(leader << 1)
        loads.append(bits if type(bits) is Bits else Bits(bits))
        in_flight += 1
        if in_flight > peak:
            peak = in_flight

    while codes:
        if delivered + len(codes) > max_messages:
            if line:
                raise RingError(
                    f"exceeded {max_messages} messages on a line of {n}"
                )
            raise RingError(
                f"exceeded {max_messages} messages on n={n}; "
                "algorithm appears to diverge"
            )
        next_codes: list[int] = []
        next_loads: list[Bits] = []
        append_code = next_codes.append
        append_load = next_loads.append
        for code, bits in zip(codes, loads):
            in_flight -= 1
            size = bits._length  # len(bits), sans the method dispatch
            bits_by_code[code] += size
            sent_by_code[code] += 1
            pass_acc += size
            in_pass += 1
            if in_pass == n:
                pass_bits.append(pass_acc)
                pass_acc = 0
                in_pass = 0
            receiver = receiver_of[code]
            for send in handler_of[code](bits, arrived_of[code]):
                if send.__class__ is not Send and not isinstance(send, Send):
                    raise ProtocolError(
                        f"handlers must yield Send, got {send!r}"
                    )
                direction, sbits = send
                if direction is cw:
                    if receiver == cw_forbidden:
                        raise ProtocolError(
                            f"p_{receiver} sent {direction} off the end "
                            "of the line"
                        )
                    append_code((receiver << 1) | 1)
                else:
                    if uni:
                        raise ProtocolError(
                            "unidirectional algorithms may only send CW "
                            f"(p_{receiver} tried {direction})"
                        )
                    if receiver == ccw_forbidden:
                        raise ProtocolError(
                            f"p_{receiver} sent {direction} off the end "
                            "of the line"
                        )
                    append_code(receiver << 1)
                append_load(sbits if type(sbits) is Bits else Bits(sbits))
                in_flight += 1
                if in_flight > peak:
                    peak = in_flight
        delivered += len(codes)
        codes = next_codes
        loads = next_loads

    if in_pass:
        pass_bits.append(pass_acc)
    # Fold the per-code tables into TraceStats' per-node/per-link shape.
    # Codes that never delivered (line off-the-end entries) have zero
    # counts, so the fold never touches their (invalid) link ids.
    link_bits = [0] * n
    sent_counts = [0] * n
    for code in range(2 * n):
        count = sent_by_code[code]
        if count:
            sent_counts[code >> 1] += count
            link_bits[link_of[code]] += bits_by_code[code]
    record.total_bits = sum(bits_by_code)
    record.message_count = delivered
    record.link_bits = link_bits
    record.sent_counts = sent_counts
    record.pass_bits = pass_bits
    record.max_in_flight = peak


class LinkQueues:
    """Per-link FIFO queues with an age-ordered view of the active set.

    Keys are opaque hashable link identifiers (the simulators use
    ``(sender, direction)``).  ``peak_in_flight`` tracks the maximum
    number of undelivered messages, which the simulators record on their
    traces at quiescence.
    """

    __slots__ = (
        "queues",
        "active",
        "heap",
        "sorted_view",
        "use_heap",
        "stamp",
        "in_flight",
        "peak_in_flight",
    )

    def __init__(self, use_heap: bool) -> None:
        self.queues: dict[Hashable, deque[tuple[int, Bits]]] = {}
        self.active: set[Hashable] = set()
        self.heap: list[tuple[int, Hashable]] = []
        self.sorted_view: list[tuple[int, Hashable]] = []
        self.use_heap = use_heap
        self.stamp = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    def push(self, key: Hashable, bits: Bits) -> None:
        """Enqueue one message on ``key``'s link (stamped for age order)."""
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
        if not queue:
            self.active.add(key)
            if self.use_heap:
                heapq.heappush(self.heap, (self.stamp, key))
            else:
                # Stamps are monotonic, so a freshly woken queue's head is
                # always the youngest in the view: append, never search.
                self.sorted_view.append((self.stamp, key))
        queue.append((self.stamp, bits))
        self.stamp += 1
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def oldest_key(self) -> Hashable | None:
        """Heap path: the key holding the globally oldest head, or None.

        Leaves that key's entry at the heap top for :meth:`pop` to
        retire; the heap never holds stale entries (only :meth:`pop`
        removes heads, and it re-pushes the successor immediately), so
        the top is valid by construction.
        """
        return self.heap[0][1] if self.heap else None

    def sorted_candidates(self) -> list[tuple[int, Hashable]]:
        """Sorted path: every active queue as ``(head_stamp, key)``, by age.

        A copy of the incrementally maintained view — callers may mutate
        the returned list freely.
        """
        return list(self.sorted_view)

    def next_candidates(self) -> "tuple | list | None":
        """Candidate keys for the next delivery, or None at quiescence.

        The single entry point both simulators present to their
        scheduler: the lone heap head under ``use_heap`` (the chosen
        index can only be 0), the full age-sorted key list otherwise.
        """
        if self.use_heap:
            head = self.oldest_key()
            return None if head is None else (head,)
        view = self.sorted_view
        return [key for _, key in view] if view else None

    def pop(self, key: Hashable) -> Bits:
        """Dequeue ``key``'s head message, maintaining the age order."""
        queue = self.queues[key]
        old_stamp, bits = queue.popleft()
        if self.use_heap:
            # oldest_key() left this key's entry at the top.
            heapq.heappop(self.heap)
            if queue:
                heapq.heappush(self.heap, (queue[0][0], key))
        else:
            # Retire this key's head entry (stamps are unique, so the
            # one-element probe finds it without comparing keys) and
            # bisect-insert the successor head.
            view = self.sorted_view
            del view[bisect_left(view, (old_stamp,))]
            if queue:
                insort(view, (queue[0][0], key))
        if not queue:
            self.active.discard(key)
        self.in_flight -= 1
        return bits
