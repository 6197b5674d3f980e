"""Delivery engines for the asynchronous simulators.

There are three engines, and the run alone picks one — no flag, no
environment variable:

* the **relay walk** (:func:`run_relay`) runs a ``trace="metrics"``
  run, on either ring and under any scheduler, whose algorithm
  declares a :class:`~repro.ring.processor.RelayProgram`;
* the **round-batched sweep** (:func:`run_round_batched`) runs every
  other unidirectional run, and every other bidirectional or line run
  whose scheduler is ``round_batchable``;
* the **chooser loop** (:func:`run_chooser`) runs every other
  scheduler.

Both rings apply the walk rule themselves (one shared base class), and
hand every other run's processors to :func:`execute`, as the line
network does; :func:`execute` picks between the sweep and the chooser
loop by the scheduler alone, and the trace policy picks only the sink.

* **Relay walk** — a single-token algorithm (Theorem 1's one-pass
  recognizers, the §7(5) multipass ones) is a function of the word:
  pass by pass the leader's message visits ``p_1 .. p_{n-1}`` in order,
  always CW, and with one message in flight every scheduler sees the
  same execution (Theorem 6 "follows immediately from Theorem 1").
  The walk applies the algorithm's step at each position, with
  per-node memory in one list, and folds the sweep's
  :class:`~repro.ring.trace.TraceStats` counters directly.  No
  processor objects, no :class:`Send` and no list per message.  A
  program whose followers keep no memory may also offer a whole-pass
  walk on the packed int (Theorem 1's DFA table, the §7(5) recognizers),
  which replaces a pass's n - 1 step calls when it answers.  A
  scheduler that is not ``round_batchable`` is still asked once per
  delivery, with the one-element candidate list the chooser loop would
  give it, so its state after the run is the chooser loop's.  Full
  traces do not walk: they need the events and local logs the
  processors produce, and those processors are the walk's oracle
  (``tests/test_relay_walk.py``).
* **Round-batched sweep** (:func:`run_round_batched`) — for a
  ``round_batchable`` scheduler (pure global-FIFO, never needs its
  ``choose`` consulted — true of the default :class:`FifoScheduler`)
  and for the unidirectional ring's other runs, which have no
  scheduler: their unique execution is global FIFO by definition.
  Under global FIFO the delivery order *is* the enqueue-stamp order:
  each link queue is FIFO, so every queue head is its queue's minimum
  stamp, and the globally oldest head is the globally oldest in-flight
  message.  The protocols are therefore round-structured — every
  message enqueued before a round boundary is delivered before any
  message it causes — and the engine sweeps whole rounds at a time over
  packed parallel lists (an int code ``sender << 1 | is_cw`` next to the
  payload), folding the :class:`~repro.ring.trace.TraceStats` counters
  into flat local tables written back once at quiescence.  No per-queue dict hashing, no
  ``Scheduler.choose`` call, no per-message method dispatch: one tight
  loop per round.
* **Chooser loop** (:func:`run_chooser`) — every other scheduler
  (random, LIFO, adversarial, or a FIFO that declines batching) is
  asked once per delivery to pick among the age-sorted active queues of
  :class:`LinkQueues`.  The sorted view is maintained *incrementally*:
  a push to an idle queue appends the newest stamp (monotonic, so
  always the tail), and a pop bisects the retired head out and
  bisect-inserts the successor head — O(log q) search plus one O(q)
  list shift per delivery for q active queues, instead of re-sorting
  every active queue (O(q log q)) per delivery.

The sweep and the chooser loop run on one topology table
(:class:`_Links`), validate sends the same way — raising each
simulator's exact model-violation wording at enqueue time — and stream
into :class:`TraceStats`.
``trace="full"`` wraps every processor in a recording layer
(:class:`_Recorder`) that appends the :class:`MessageEvent` list and the
local logs as the engine delivers, and takes ``max_in_flight`` from the
counters; the engine never knows.

Delivery order is identical on the sweep and the chooser loop under a
global-FIFO scheduler: enqueue stamps are unique, so "first element of
the sorted candidate list" and "next message of the current round
sweep" name the same message.  A FIFO scheduler that declines batching therefore runs
the chooser loop as the sweep's oracle (``tests/test_delivery_batch.py``
pins the equivalence, whole traces included).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

from repro.bits import Bits
from repro.errors import ProtocolError, RingError
from repro.ring.messages import Direction, Send
from repro.ring.trace import (
    ExecutionTrace,
    MessageEvent,
    TracePolicy,
    TraceStats,
    validate_trace_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ring.processor import Processor, RelayProgram
    from repro.ring.schedulers import Scheduler

__all__ = [
    "LinkQueues",
    "execute",
    "run_chooser",
    "run_relay",
    "run_round_batched",
]


def execute(
    processors: "Sequence[Processor]",
    word: str,
    leader: int,
    scheduler: "Scheduler | None",
    max_messages: int,
    trace: TracePolicy,
    name: str,
    line: bool = False,
    uni: bool = False,
) -> ExecutionTrace | TraceStats:
    """Run ``processors`` to quiescence; return the trace or its counters.

    ``scheduler=None`` (the unidirectional ring) or a ``round_batchable``
    scheduler takes the round-batched sweep, any other scheduler the
    chooser loop.  ``trace="full"`` records through :class:`_Recorder`
    on whichever engine runs.  ``line``/``uni`` select the topology as
    in :func:`run_round_batched`.  An execution that quiesces without a
    leader decision raises :class:`ProtocolError` (``name`` is the
    algorithm's, for the message).
    """
    validate_trace_policy(trace)
    n = len(word)
    stats = TraceStats(word, leader)
    engine_processors = processors
    if trace == "full":
        record = ExecutionTrace(
            word=word, leader=leader, local_logs=[[] for _ in range(n)]
        )
        engine_processors = [
            _Recorder(processor, index, n, record)
            for index, processor in enumerate(processors)
        ]
    if scheduler is None or scheduler.round_batchable:
        engine = "sweep"
        run_round_batched(
            engine_processors, n, leader, stats, max_messages, line, uni
        )
    else:
        engine = "chooser"
        run_chooser(
            engine_processors, n, leader, stats, max_messages, scheduler, line
        )
    decision = processors[leader].decision
    if decision is None:
        raise _quiesce_error(name, word, line)
    if trace == "metrics":
        stats.decision = decision
        stats.engine = engine
        return stats
    record.max_in_flight = stats.max_in_flight
    record.decision = decision
    return record


def _cap_error(max_messages: int, n: int, line: bool) -> RingError:
    """The error of a run that would deliver over ``max_messages``."""
    if line:
        return RingError(f"exceeded {max_messages} messages on a line of {n}")
    return RingError(
        f"exceeded {max_messages} messages on n={n}; "
        "algorithm appears to diverge"
    )


def _choice_error(chosen: int, count: int) -> RingError:
    """The error of a scheduler choosing outside its candidate list."""
    return RingError(
        f"scheduler chose index {chosen} out of {count} candidates"
    )


def _quiesce_error(name: str, word: str, line: bool) -> ProtocolError:
    """The error of a run that ends without a leader decision."""
    return ProtocolError(
        f"{'line execution' if line else 'execution'} of {name!r} on "
        f"{word!r} quiesced without a leader decision"
    )


class _Links:
    """One topology's per-code tables, shared by the sweep and the chooser.

    A message is the int code ``sender << 1 | is_cw``; flat lists indexed
    by it replace dict hashing, modulo and direction branches in the
    delivery loops.  ``cw_code[s]`` / ``ccw_code[s]`` give the code of a
    send out of ``p_s``'s CW / CCW port, or -1 where the model forbids
    it: off either end of a line, and CCW anywhere on the unidirectional
    ring.  Forbidden codes are never enqueued, so their (wrapped) table
    entries are never read.
    """

    __slots__ = (
        "uni",
        "cw_code",
        "ccw_code",
        "handler_of",
        "receiver_of",
        "arrived_of",
    )

    def __init__(
        self, processors: "Sequence[Processor]", n: int, line: bool, uni: bool
    ) -> None:
        self.uni = uni
        self.cw_code = list(range(1, 2 * n, 2))
        self.ccw_code = [-1] * n if uni else list(range(0, 2 * n, 2))
        if line:
            self.cw_code[n - 1] = -1
            self.ccw_code[0] = -1
        # Code 2s (CCW out of p_s) reaches p_{s-1} on its CW port; code
        # 2s+1 (CW out of p_s) reaches p_{s+1} on its CCW port.  Built by
        # slicing: these tables are O(n) per run, and a run can be O(n)
        # deliveries.
        nodes = list(range(n))
        handlers = [processor.on_receive for processor in processors]
        self.receiver_of = [0] * (2 * n)
        self.receiver_of[0::2] = nodes[-1:] + nodes[:-1]
        self.receiver_of[1::2] = nodes[1:] + nodes[:1]
        self.handler_of: list = [None] * (2 * n)
        self.handler_of[0::2] = handlers[-1:] + handlers[:-1]
        self.handler_of[1::2] = handlers[1:] + handlers[:1]
        self.arrived_of = [Direction.CW, Direction.CCW] * n

    def encode(self, sender: int, sends: Iterable[Send]) -> Iterator[tuple]:
        """Validate one handler's sends, yielding ``(code, bits)`` each."""
        cw_out = self.cw_code[sender]
        ccw_out = self.ccw_code[sender]
        for send in sends:
            if not isinstance(send, Send):
                raise self.reject(sender, send)
            direction, bits = send
            code = cw_out if direction is Direction.CW else ccw_out
            if code < 0:
                raise self.reject(sender, send)
            yield code, (bits if type(bits) is Bits else Bits(bits))

    def reject(self, sender: int, send: object) -> ProtocolError:
        """The model violation of a refused send, in its simulator's words."""
        if not isinstance(send, Send):
            return ProtocolError(f"handlers must yield Send, got {send!r}")
        if self.uni:
            return ProtocolError(
                "unidirectional algorithms may only send CW "
                f"(p_{sender} tried {send.direction})"
            )
        return ProtocolError(
            f"p_{sender} sent {send.direction} off the end of the line"
        )

    def write_back(
        self,
        record: TraceStats,
        bits_by_code: list[int],
        sent_by_code: list[int],
        pass_bits: list[int],
        delivered: int,
        peak: int,
    ) -> None:
        """Fold per-code counters into ``record``'s per-node/per-link shape.

        Link ``s`` joins ``p_s`` and ``p_{s+1}``: CW out of ``p_s`` (code
        2s+1) and CCW out of ``p_{s+1}`` (code 2s+2, wrapping) cross it.
        Forbidden codes never delivered, so they add zero.
        """
        ccw_bits = bits_by_code[0::2]
        record.total_bits = sum(bits_by_code)
        record.message_count = delivered
        record.link_bits = [
            cw + ccw
            for cw, ccw in zip(bits_by_code[1::2], ccw_bits[1:] + ccw_bits[:1])
        ]
        record.sent_counts = [
            cw + ccw for ccw, cw in zip(sent_by_code[0::2], sent_by_code[1::2])
        ]
        record.pass_bits = pass_bits
        record.max_in_flight = peak


def run_round_batched(
    processors: "Sequence[Processor]",
    n: int,
    leader: int,
    record: TraceStats,
    max_messages: int,
    line: bool = False,
    uni: bool = False,
) -> None:
    """Execute to quiescence in round-batched sweeps (global-FIFO order).

    Delivers every message enqueued before the current round boundary in
    one pass: the round's messages live in two packed parallel lists
    (int code and ``Bits`` payload), responses accumulate into the next
    round's lists, and the :class:`TraceStats` counters fold through
    flat local tables written back to ``record`` once at quiescence.
    The caller owns the decision check.

    ``line=True`` selects line topology: a send off either end raises
    :class:`ProtocolError` at enqueue time.  ``uni=True`` selects the
    unidirectional model: the ring wraps, but any CCW send raises
    :class:`ProtocolError` at enqueue time.
    The message cap trips exactly when deliveries would exceed
    ``max_messages`` with traffic still pending (checked per round —
    the cap can only be crossed mid-round), the same raise/no-raise
    decision as the chooser loop's per-delivery check.
    """
    links = _Links(processors, n, line, uni)
    cw = Direction.CW
    cw_code = links.cw_code
    ccw_code = links.ccw_code
    handler_of = links.handler_of
    receiver_of = links.receiver_of
    arrived_of = links.arrived_of

    bits_by_code = [0] * (2 * n)
    sent_by_code = [0] * (2 * n)
    pass_bits: list[int] = []
    delivered = 0
    pass_acc = 0
    in_pass = 0

    # The current round, packed: codes[i] next to its payload loads[i].
    # zip() reuses its result tuple in CPython, so the sweep below
    # allocates nothing per message beyond the responses.
    codes: list[int] = []
    loads: list[Bits] = []
    for code, bits in links.encode(leader, processors[leader].on_start()):
        codes.append(code)
        loads.append(bits)
    in_flight = peak = len(codes)

    while codes:
        if delivered + len(codes) > max_messages:
            raise _cap_error(max_messages, n, line)
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
            # _Links.encode, inlined: a generator per delivery would tax
            # the hottest loop in the package.
            for send in handler_of[code](bits, arrived_of[code]):
                if send.__class__ is not Send and not isinstance(send, Send):
                    raise links.reject(receiver, send)
                direction, sbits = send
                out = (
                    cw_code[receiver] if direction is cw else ccw_code[receiver]
                )
                if out < 0:
                    raise links.reject(receiver, send)
                append_code(out)
                append_load(sbits if type(sbits) is Bits else Bits(sbits))
                in_flight += 1
                if in_flight > peak:
                    peak = in_flight
        delivered += len(codes)
        codes = next_codes
        loads = next_loads

    if in_pass:
        pass_bits.append(pass_acc)
    links.write_back(
        record, bits_by_code, sent_by_code, pass_bits, delivered, peak
    )


def run_chooser(
    processors: "Sequence[Processor]",
    n: int,
    leader: int,
    record: TraceStats,
    max_messages: int,
    scheduler: "Scheduler",
    line: bool = False,
) -> None:
    """Execute to quiescence, asking ``scheduler`` before every delivery.

    The candidates are the message codes (``sender << 1 | is_cw``) of
    the active link queues, oldest head first; the scheduler returns the
    index of the one to deliver.  Topology, send validation, the message
    cap and the counters match :func:`run_round_batched`; the caller owns
    the decision check.
    """
    links = _Links(processors, n, line, False)
    handler_of = links.handler_of
    receiver_of = links.receiver_of
    arrived_of = links.arrived_of
    encode = links.encode
    pending = LinkQueues()
    push = pending.push
    choose = scheduler.choose

    bits_by_code = [0] * (2 * n)
    sent_by_code = [0] * (2 * n)
    pass_bits: list[int] = []
    delivered = 0

    for code, bits in encode(leader, processors[leader].on_start()):
        push(code, bits)
    while True:
        candidates = pending.next_candidates()
        if candidates is None:
            break
        if delivered >= max_messages:
            raise _cap_error(max_messages, n, line)
        chosen = choose(candidates)
        if not 0 <= chosen < len(candidates):
            raise _choice_error(chosen, len(candidates))
        code = candidates[chosen]
        bits = pending.pop(code)
        size = bits._length
        bits_by_code[code] += size
        sent_by_code[code] += 1
        if delivered % n:
            pass_bits[-1] += size
        else:
            pass_bits.append(size)
        delivered += 1
        sends = handler_of[code](bits, arrived_of[code])
        for out, sbits in encode(receiver_of[code], sends):
            push(out, sbits)

    links.write_back(
        record,
        bits_by_code,
        sent_by_code,
        pass_bits,
        delivered,
        pending.peak_in_flight,
    )


def run_relay(
    program: "RelayProgram",
    word: str,
    max_messages: int,
    name: str,
    scheduler: "Scheduler | None" = None,
) -> TraceStats:
    """Walk a single-token relay over ``word``; return its counters.

    Pass by pass, the leader's message visits ``p_1 .. p_{n-1}``, each
    applying ``program.step`` with its letter and its slot of one memory
    list, and returns to the leader's ``program.pass_end`` (see
    :class:`~repro.ring.processor.RelayProgram`).  This is the execution
    the round-batched sweep runs through the algorithm's processors, and
    the counters are the sweep's: every pass is n deliveries, ``p_i``'s
    message crosses link ``i``, and one message is ever in flight.

    A pass that fits under the message cap is walked whole when the
    program offers a walk for its first message's width
    (``program.pass_walk``): the walk folds the followers over the
    packed int, every link carries ``width`` bits (one scalar, added to
    every link at write-back), the pass costs ``width * n`` bits, and
    one :class:`Bits` is built for ``pass_end``.  A pass with no walk,
    a walk that answers None, or the cap inside it is stepped instead,
    from its first follower, exactly as if no walk were offered.

    Model checks match the sweep's: a non-:class:`Bits` message is
    coerced where it is sent; the message cap raises the sweep's
    :class:`RingError` just before delivery ``max_messages + 1`` (so a
    step that raises earlier wins); and a pass end with neither a
    decision nor a next message raises the sweep's quiesce error.

    A ``scheduler`` that is not ``round_batchable`` is asked before
    every delivery, as :func:`run_chooser` would ask it (see
    :func:`_asking`); the walk is the chooser loop's execution too.  A
    walked pass asks for its follower deliveries in one
    :meth:`~repro.ring.schedulers.Scheduler.ask_each` call after the
    walk, which is the same asks in the same order: the walked
    followers have no effect the asks could observe or cut short.
    """
    n = len(word)
    ask_each = None
    if scheduler is not None and not scheduler.round_batchable:
        program = _asking(program, scheduler, n)
        ask_each = scheduler.ask_each
    start, step, pass_end, initial_memory, pass_walk = program
    memory = [None] * n
    if initial_memory is not None:
        memory[1:] = [initial_memory() for _ in range(n - 1)]
    followers = word[1:]
    # The codes of a pass's follower deliveries: CW out of p_0 .. p_{n-2}.
    follower_codes = range(1, 2 * n - 2, 2)
    leader_letter = word[0]
    leader_memory, bits = start(leader_letter)
    if bits.__class__ is not Bits:
        bits = Bits(bits)
    link_bits = [0] * n  # on the stepped passes
    walked_bits = 0  # carried by every link on the walked passes
    stepped = False
    pass_bits: list[int] = []
    delivered = 0
    while True:
        # A pass is n deliveries: to p_1 .. p_{n-1}, then to the leader.
        budget = max_messages - delivered
        size = bits._length
        value = None
        if pass_walk is not None and budget >= n:
            walk = pass_walk(size)
            if walk is not None:
                value = walk(followers, bits._value)
        if value is not None:
            if ask_each is not None:
                ask_each(follower_codes)
            bits = Bits._make(value, size)
            walked_bits += size
            total = size * n
        else:
            stepped = True
            last = n - 1 if budget >= n else budget
            link_bits[0] += size
            total = size
            for i in range(1, last + 1):
                memory[i], bits = step(word[i], memory[i], bits)
                if bits.__class__ is not Bits:
                    bits = Bits(bits)
                size = bits._length
                link_bits[i] += size
                total += size
            if budget < n:
                raise _cap_error(max_messages, n, False)
        delivered += n
        pass_bits.append(total)
        leader_memory, bits, decision = pass_end(
            leader_letter, leader_memory, bits
        )
        if decision is not None:
            break
        if bits is None:
            raise _quiesce_error(name, word, False)
        if bits.__class__ is not Bits:
            bits = Bits(bits)

    stats = TraceStats(word)
    stats.total_bits = sum(pass_bits)
    stats.message_count = delivered
    if not stepped:
        link_bits = [walked_bits] * n
    elif walked_bits:
        link_bits = [size + walked_bits for size in link_bits]
    stats.link_bits = link_bits
    stats.sent_counts = [len(pass_bits)] * n
    stats.pass_bits = pass_bits
    stats.max_in_flight = 1
    stats.decision = decision
    stats.engine = "walk"
    return stats


def _asking(
    program: "RelayProgram", scheduler: "Scheduler", n: int
) -> "RelayProgram":
    """``program`` with ``scheduler`` asked before each stepped delivery.

    With one message in flight the chooser loop's candidate list is the
    single code ``2*sender + 1`` (CW out of the sender), a fresh list
    per delivery.  A pass's steps are sent by ``p_0 .. p_{n-2}`` and its
    pass end by ``p_{n-1}``.  The walk calls a step only for a delivery
    under the cap, so the scheduler is asked exactly when the chooser
    loop would ask it: after the cap check and before the handler.  A
    walked pass calls no step; :func:`run_relay` asks for its followers
    through ``ask_each`` and its pass end here.
    """
    step, pass_end = program.step, program.pass_end
    choose = scheduler.choose
    last_code = 2 * n - 1
    code = 1

    def asked_step(letter: str, memory, incoming: Bits) -> tuple:
        nonlocal code
        chosen = choose([code])
        if not 0 <= chosen < 1:
            raise _choice_error(chosen, 1)
        code += 2
        return step(letter, memory, incoming)

    def asked_pass_end(letter: str, memory, incoming: Bits) -> tuple:
        nonlocal code
        chosen = choose([last_code])
        if not 0 <= chosen < 1:
            raise _choice_error(chosen, 1)
        code = 1
        return pass_end(letter, memory, incoming)

    return program._replace(step=asked_step, pass_end=asked_pass_end)


class _Recorder:
    """A processor whose deliveries and sends land in a full trace.

    Wraps one processor for either engine: each delivery appends its
    :class:`MessageEvent` (indexed in delivery order) and a
    ``("received", port, bits)`` local-log entry before the handler runs,
    and each send the handler yields appends ``("sent", port, bits)`` as
    the engine takes it.  Sends that are not :class:`Send` pass through
    unlogged for the engine to reject.
    """

    __slots__ = (
        "_processor",
        "_index",
        "_from_ccw",
        "_from_cw",
        "_events",
        "_log",
    )

    def __init__(
        self, processor: "Processor", index: int, n: int, trace: ExecutionTrace
    ) -> None:
        self._processor = processor
        self._index = index
        # A message arriving on the CCW port travelled CW from p_{i-1}.
        self._from_ccw = (index - 1) % n
        self._from_cw = (index + 1) % n
        self._events = trace.events
        self._log = trace.local_logs[index]

    def on_start(self) -> Iterator[Send]:
        return self._logged(self._processor.on_start())

    def on_receive(self, bits: Bits, arrived_from: Direction) -> Iterator[Send]:
        events = self._events
        # MessageEvent(index, sender, receiver, direction, bits)
        if arrived_from is Direction.CCW:
            events.append(
                MessageEvent(
                    len(events), self._from_ccw, self._index, Direction.CW, bits
                )
            )
        else:
            events.append(
                MessageEvent(
                    len(events), self._from_cw, self._index, Direction.CCW, bits
                )
            )
        self._log.append(("received", arrived_from, bits))
        return self._logged(self._processor.on_receive(bits, arrived_from))

    def _logged(self, sends: Iterable[Send]) -> Iterator[Send]:
        log = self._log
        for send in sends:
            if send.__class__ is Send or isinstance(send, Send):
                direction, bits = send
                if type(bits) is not Bits:
                    send = Send(direction, Bits(bits))
                log.append(("sent", direction, send.bits))
            yield send


class LinkQueues:
    """Per-link FIFO queues with an age-ordered view of the active set.

    Keys are opaque hashable link identifiers (the chooser loop uses
    message codes).  ``sorted_view`` holds ``(head_stamp, key)`` for
    every non-empty queue, oldest head first.  ``peak_in_flight`` tracks
    the maximum number of undelivered messages.
    """

    __slots__ = (
        "queues",
        "sorted_view",
        "stamp",
        "in_flight",
        "peak_in_flight",
    )

    def __init__(self) -> None:
        self.queues: dict[Hashable, deque[tuple[int, Bits]]] = {}
        self.sorted_view: list[tuple[int, Hashable]] = []
        self.stamp = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    def push(self, key: Hashable, bits: Bits) -> None:
        """Enqueue one message on ``key``'s link (stamped for age order)."""
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
        if not queue:
            # Stamps are monotonic, so a freshly woken queue's head is
            # always the youngest in the view: append, never search.
            self.sorted_view.append((self.stamp, key))
        queue.append((self.stamp, bits))
        self.stamp += 1
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def next_candidates(self) -> list | None:
        """Active keys, oldest head first, or None at quiescence."""
        view = self.sorted_view
        return [key for _, key in view] if view else None

    def pop(self, key: Hashable) -> Bits:
        """Dequeue ``key``'s head message, maintaining the age order."""
        queue = self.queues[key]
        old_stamp, bits = queue.popleft()
        # Retire this key's head entry (stamps are unique, so the
        # one-element probe finds it without comparing keys) and
        # bisect-insert the successor head.
        view = self.sorted_view
        del view[bisect_left(view, (old_stamp,))]
        if queue:
            insort(view, (queue[0][0], key))
        self.in_flight -= 1
        return bits
