"""The two delivery engines: oracle equivalence and engagement rules.

The round-batched sweep (:func:`repro.ring.delivery.run_round_batched`)
serves every run whose scheduler is ``round_batchable``, on both trace
policies; every other scheduler takes the chooser loop
(:func:`repro.ring.delivery.run_chooser`).  A FIFO scheduler that
declines batching (``_HeapFifo``) runs the chooser loop in the sweep's
delivery order, so it is the sweep's oracle: identical delivery order
(pinned here through a shared journal every processor appends to),
identical :class:`~repro.ring.trace.TraceStats` counters, identical
whole :class:`~repro.ring.trace.ExecutionTrace` objects (events, local
logs, peak in flight, decision), and identical experiment tables —
across the bidirectional ring, the line, and the unidirectional ring
(pinned against a bidirectional ring running the same CW-only
protocol), with randomized protocols.  Full traces are also checked
against their own events: every local log must be the projection of the
event list onto that processor.
The poisoned-oracle tests prove the engagement rule from both sides: a
batchable run never constructs :class:`LinkQueues` at all, whatever its
trace policy, and a scheduler that is not ``round_batchable`` does.

The incremental sorted view (the chooser's candidate list) is covered
by a push/pop state-machine property against a from-scratch re-sort.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.errors import ProtocolError
from repro.experiments import get_spec
import repro.ring.delivery as delivery
from repro.ring.bidirectional import BidirectionalRing, run_bidirectional
from repro.ring.delivery import LinkQueues
from repro.ring.line import LineNetwork
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.unidirectional import run_unidirectional
from repro.ring.schedulers import (
    AdversarialScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
    Scheduler,
)

STAT_FIELDS = (
    "total_bits",
    "message_count",
    "link_bits",
    "sent_counts",
    "pass_bits",
    "max_in_flight",
    "decision",
)


class _HeapFifo(FifoScheduler):
    """Global-FIFO order, batch engine declined: the chooser-loop oracle."""

    round_batchable = False


def _assert_stats_equal(left, right) -> None:
    for field in STAT_FIELDS:
        assert getattr(left, field) == getattr(right, field), field


def _assert_logs_match_events(trace) -> None:
    """Every local log is its processor's projection of the event list.

    Received entries follow the delivery order; sent entries per port
    follow that link's delivery order (links are FIFO, and a quiescent
    run has delivered everything it sent).
    """
    n = trace.ring_size
    assert [event.index for event in trace.events] == list(
        range(len(trace.events))
    )
    for event in trace.events:
        assert event.receiver == event.direction.step(event.sender, n)
    for node, log in enumerate(trace.local_logs):
        received = [(port, bits) for kind, port, bits in log if kind == "received"]
        assert received == [
            (event.direction.opposite(), event.bits)
            for event in trace.events
            if event.receiver == node
        ]
        for port in Direction:
            sent = [
                bits
                for kind, direction, bits in log
                if kind == "sent" and direction is port
            ]
            assert sent == [
                event.bits
                for event in trace.events
                if event.sender == node and event.direction is port
            ]


# ---------------------------------------------------------------------------
# A randomized protocol whose executions are deterministic per seed:
# every processor draws from its own RNG, and since both engines deliver
# in the same global order, the k-th on_receive of a given processor
# sees the same message in both — so the RNG streams align and the two
# executions are the same execution.  Message TTL is its bit length and
# children are strictly shorter, so every execution quiesces.
# ---------------------------------------------------------------------------


class _ChaosProcessor(Processor):
    def __init__(
        self, letter, is_leader, index, size, seed, line, journal,
        uni=False,
    ):
        super().__init__(letter, is_leader)
        self._rng = random.Random(seed * 1_000_003 + index)
        self._index = index
        self._size = size
        self._line = line
        self._uni = uni
        self._journal = journal

    def _sends(self, budget: int):
        rng = self._rng
        out = []
        # Branchy but bounded: children are strictly shorter than their
        # parent, so depth <= the on_start budget and every run quiesces.
        children = rng.choice((0, 1, 1, 1, 2, 2))
        for _ in range(children):
            if budget <= 1:
                break
            ttl = rng.randrange(max(1, budget - 3), budget)
            payload = Bits(
                "".join(rng.choice("01") for _ in range(ttl))
            )
            choices = []
            if not self._line or self._index < self._size - 1:
                choices.append(Direction.CW)
            if not self._uni and (not self._line or self._index > 0):
                choices.append(Direction.CCW)
            if not choices:
                break
            out.append(Send(rng.choice(choices), payload))
        return out

    def on_start(self):
        self.decide(True)
        return self._sends(12)

    def on_receive(self, bits, arrived_from):
        self._journal.append((self._index, len(bits), arrived_from))
        return self._sends(len(bits))


class _ChaosAlgorithm(RingAlgorithm):
    name = "chaos"

    def __init__(
        self, seed: int, line: bool = False, uni: bool = False
    ) -> None:
        super().__init__("ab")
        self._seed = seed
        self._line = line
        self._uni = uni
        self.journal: "list[tuple[int, int, Direction]]" = []

    def create_processor(self, letter, is_leader):
        raise AssertionError("positioned only")

    def create_processor_positioned(self, letter, is_leader, index, size):
        return _ChaosProcessor(
            letter, is_leader, index, size, self._seed, self._line,
            self.journal, uni=self._uni,
        )


def _run_chaos_bidi(seed: int, n: int, scheduler: Scheduler, trace: str):
    algorithm = _ChaosAlgorithm(seed)
    result = run_bidirectional(
        algorithm, "a" * n, scheduler=scheduler, trace=trace
    )
    return result, algorithm.journal


def _run_chaos_line(seed: int, n: int, scheduler: Scheduler, trace: str):
    algorithm = _ChaosAlgorithm(seed, line=True)
    leader = seed % n
    result = LineNetwork(
        algorithm, "a" * n, leader=leader, scheduler=scheduler
    ).run(trace=trace)
    return result, algorithm.journal


def _run_chaos_uni(seed: int, n: int, trace: str):
    algorithm = _ChaosAlgorithm(seed, uni=True)
    result = run_unidirectional(algorithm, "a" * n, trace=trace)
    return result, algorithm.journal


class TestOracleEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_bidi_batch_equals_heap_and_full(self, seed, n):
        batch, batch_journal = _run_chaos_bidi(
            seed, n, FifoScheduler(), "metrics"
        )
        heap, heap_journal = _run_chaos_bidi(seed, n, _HeapFifo(), "metrics")
        full, full_journal = _run_chaos_bidi(seed, n, FifoScheduler(), "full")
        heap_full, heap_full_journal = _run_chaos_bidi(
            seed, n, _HeapFifo(), "full"
        )
        # Identical delivery order, message for message...
        assert batch_journal == heap_journal == full_journal
        assert full_journal == heap_full_journal
        # ...identical accounting, field for field...
        _assert_stats_equal(batch, heap)
        _assert_stats_equal(batch, full.stats())
        # ...and identical whole traces, consistent with their events.
        assert full == heap_full
        _assert_logs_match_events(full)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_batch_equals_heap_and_full(self, seed, n):
        batch, batch_journal = _run_chaos_line(
            seed, n, FifoScheduler(), "metrics"
        )
        heap, heap_journal = _run_chaos_line(seed, n, _HeapFifo(), "metrics")
        full, full_journal = _run_chaos_line(seed, n, FifoScheduler(), "full")
        heap_full, heap_full_journal = _run_chaos_line(
            seed, n, _HeapFifo(), "full"
        )
        assert batch_journal == heap_journal == full_journal
        assert full_journal == heap_full_journal
        _assert_stats_equal(batch, heap)
        _assert_stats_equal(batch, full.stats())
        assert full == heap_full
        _assert_logs_match_events(full)

    def test_experiment_table_identical(self, monkeypatch):
        """Whole experiments render byte-identically on both engines.

        E2, E4, E5 and E6 consume full traces.  A FIFO scheduler that
        declines batching moves E5's bidirectional and E6's line runs
        onto the chooser loop; E2 and E4 run the unidirectional ring,
        which has no scheduler and sweeps either way.
        """
        ids = ("E2", "E4", "E5", "E6")
        batched = [get_spec(exp).run(True).render() for exp in ids]
        monkeypatch.setattr(FifoScheduler, "round_batchable", False)
        chooser = [get_spec(exp).run(True).render() for exp in ids]
        for exp, left, right in zip(ids, batched, chooser):
            assert left == right, exp


class TestUnidirectionalBatch:
    """The uni substrate on the sweep (``uni=True``).

    The unidirectional simulator has no scheduler, so its oracle is a
    bidirectional ring whose FIFO declines batching, running the same
    CW-only protocol on the chooser loop: the unique execution must be
    the same execution, whole trace included.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_uni_batch_equals_bidi_chooser_and_full(self, seed, n):
        batch, batch_journal = _run_chaos_uni(seed, n, "metrics")
        full, full_journal = _run_chaos_uni(seed, n, "full")
        algorithm = _ChaosAlgorithm(seed, uni=True)
        oracle = BidirectionalRing(
            algorithm, "a" * n, scheduler=_HeapFifo()
        ).run()
        # Identical delivery order, message for message...
        assert batch_journal == full_journal == algorithm.journal
        # ...identical accounting, field for field...
        _assert_stats_equal(batch, full.stats())
        # ...and identical whole traces, consistent with their events.
        assert full == oracle
        _assert_logs_match_events(full)

    def test_uni_ccw_error_identical(self):
        """The sweep's CCW rejection keeps the unidirectional model
        violation's wording (not the line's) on both trace policies."""

        class _Rebel(Processor):
            def on_start(self):
                self.decide(True)
                return [Send.cw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return [Send.ccw(bits)]

        class _RebelAlgo(RingAlgorithm):
            name = "rebel"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Rebel(letter, is_leader)

        def message(trace):
            with pytest.raises(ProtocolError) as info:
                run_unidirectional(_RebelAlgo(), "aaa", trace=trace)
            return str(info.value)

        batched = message("metrics")
        assert batched == (
            "unidirectional algorithms may only send CW "
            "(p_1 tried Direction.CCW)"
        )
        assert batched == message("full")

    def test_uni_cap_errors_identical(self):
        """The round-hoisted cap raises exactly like the chooser's
        per-delivery check on a bidirectional ring."""

        class _Forever(Processor):
            def on_start(self):
                self.decide(True)
                return [Send.cw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return [Send.cw(bits)]

        class _ForeverAlgo(RingAlgorithm):
            name = "forever"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Forever(letter, is_leader)

        def message(run, **kwargs):
            from repro.errors import RingError

            with pytest.raises(RingError) as info:
                run(_ForeverAlgo(), "aaaa", max_messages=10, **kwargs)
            return str(info.value)

        batched = message(run_unidirectional, trace="metrics")
        assert batched == (
            "exceeded 10 messages on n=4; algorithm appears to diverge"
        )
        assert batched == message(run_unidirectional)
        assert batched == message(run_bidirectional, scheduler=_HeapFifo())

        # Quiescing at exactly the cap raises on neither path.
        class _Once(Processor):
            def on_start(self):
                self.decide(True)
                return [Send.cw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return ()

        class _OnceAlgo(RingAlgorithm):
            name = "once"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Once(letter, is_leader)

        stats = run_unidirectional(
            _OnceAlgo(), "aa", max_messages=1, trace="metrics"
        )
        assert stats.message_count == 1
        full = run_unidirectional(_OnceAlgo(), "aa", max_messages=1)
        assert full.stats().message_count == 1


class TestEngagementRules:
    def test_scheduler_capability_flags(self):
        assert FifoScheduler.round_batchable
        assert not LifoScheduler.round_batchable
        assert not RandomScheduler.round_batchable
        assert not AdversarialScheduler.round_batchable
        # The bench/oracle idiom: FIFO order without batchability.
        assert not _HeapFifo.round_batchable

    @pytest.mark.parametrize("substrate", ["bidi", "line"])
    def test_batch_path_never_consults_the_oracle(
        self, substrate, monkeypatch
    ):
        """Poisoned LinkQueues: a batchable run must never build it."""

        class _Poisoned:
            def __init__(self, *args, **kwargs):
                raise AssertionError("run consulted the chooser oracle")

        if substrate == "bidi":

            def run(trace, scheduler=FifoScheduler):
                return _run_chaos_bidi(7, 9, scheduler(), trace)[0]
        else:

            def run(trace, scheduler=FifoScheduler):
                return _run_chaos_line(7, 9, scheduler(), trace)[0]

        monkeypatch.setattr(delivery, "LinkQueues", _Poisoned)
        # FifoScheduler: the sweep carries the run on either policy.
        assert run("metrics").decision is True
        assert run("full").decision is True
        # A FIFO scheduler that declines batching takes the chooser.
        for trace in ("metrics", "full"):
            with pytest.raises(AssertionError, match="consulted the chooser"):
                run(trace, _HeapFifo)

    def test_line_off_end_errors_identical(self):
        """The sweep's enqueue validator matches the chooser's, word for
        word."""

        class _Bad(Processor):
            def on_start(self):
                return [Send.ccw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return ()

        class _BadAlgo(RingAlgorithm):
            name = "bad"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Bad(letter, is_leader)

        def message(trace, scheduler=FifoScheduler):
            with pytest.raises(ProtocolError) as info:
                LineNetwork(_BadAlgo(), "aa", scheduler=scheduler()).run(
                    trace=trace
                )
            return str(info.value)

        batched = message("metrics")
        assert batched == message("metrics", _HeapFifo) == message("full")
        assert batched == message("full", _HeapFifo)

    def test_message_cap_errors_identical(self):
        """The round-hoisted cap check raises exactly like the chooser's."""

        class _Forever(Processor):
            def on_start(self):
                self.decide(True)
                return [Send.cw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return [Send.cw(bits)]

        class _ForeverAlgo(RingAlgorithm):
            name = "forever"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Forever(letter, is_leader)

        def message(trace, scheduler=FifoScheduler):
            from repro.errors import RingError

            with pytest.raises(RingError) as info:
                run_bidirectional(
                    _ForeverAlgo(),
                    "aaaa",
                    scheduler=scheduler(),
                    max_messages=10,
                    trace=trace,
                )
            return str(info.value)

        batched = message("metrics")
        assert batched == message("metrics", _HeapFifo) == message("full")
        assert batched == message("full", _HeapFifo)
        # A run that quiesces at exactly the cap does NOT raise, on
        # either engine (the boundary the hoisted check must respect).
        class _Once(Processor):
            def on_start(self):
                self.decide(True)
                return [Send.cw(Bits("1"))]

            def on_receive(self, bits, arrived_from):
                return ()

        class _OnceAlgo(RingAlgorithm):
            name = "once"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                return _Once(letter, is_leader)

        for scheduler in (FifoScheduler(), _HeapFifo()):
            stats = run_bidirectional(
                _OnceAlgo(),
                "aa",
                scheduler=scheduler,
                max_messages=1,
                trace="metrics",
            )
            assert stats.message_count == 1


class TestIncrementalSortedView:
    """The chooser's candidate list, maintained without re-sorting."""

    _KEYS = ["a", "b", "c", "d", "e"]

    def _check(self, queues: LinkQueues) -> None:
        expected = sorted(
            (queue[0][0], key) for key, queue in queues.queues.items() if queue
        )
        assert queues.sorted_view == expected
        candidates = queues.next_candidates()
        if expected:
            assert candidates == [key for _, key in expected]
        else:
            assert candidates is None

    @given(ops=st.lists(st.integers(min_value=0, max_value=99), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_view_matches_full_resort_after_every_op(self, ops):
        queues = LinkQueues()
        for op in ops:
            if op % 2 == 0 or not queues.sorted_view:
                queues.push(self._KEYS[op % len(self._KEYS)], Bits("1"))
            else:
                # Pop an arbitrary active key — non-head pops are the
                # interesting case (bisect delete from the middle).
                candidates = queues.next_candidates()
                queues.pop(candidates[op % len(candidates)])
            self._check(queues)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_scheduler_still_streams_exact_metrics(self, seed):
        """Lifo/Random/Adversarial metrics == full-trace accounting.

        These schedulers pop from arbitrary positions of the sorted
        view, so this pins the incremental maintenance end to end.
        """
        for scheduler in (
            LifoScheduler(),
            RandomScheduler(seed=seed),
            AdversarialScheduler(stride=2),
        ):
            fresh = type(scheduler)
            make = (
                (lambda: RandomScheduler(seed=seed))
                if fresh is RandomScheduler
                else (lambda: AdversarialScheduler(stride=2))
                if fresh is AdversarialScheduler
                else LifoScheduler
            )
            stats, _ = _run_chaos_bidi(seed, 9, make(), "metrics")
            full, _ = _run_chaos_bidi(seed, 9, make(), "full")
            _assert_stats_equal(stats, full.stats())
            _assert_logs_match_events(full)
