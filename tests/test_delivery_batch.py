"""Round-batched delivery engine: oracle equivalence and engagement rules.

The batch engine (:func:`repro.ring.delivery.run_round_batched`) replaces
the heap loop whenever the scheduler is ``round_batchable`` and the run
streams ``trace="metrics"``.  Its contract is *bit-for-bit equivalence*
with the heap oracle: identical delivery order (pinned here through a
shared journal every processor appends to), identical
:class:`~repro.ring.trace.TraceStats` counters, and identical experiment
tables — across the asynchronous substrates (bidirectional ring, line)
and the unidirectional ring (``uni=True``, whose own global-FIFO deque
loop is the oracle), with randomized protocols.
The oracles are reached through code production runs: a ``trace="full"``
run, or a FIFO scheduler that declines batching (``_HeapFifo``).
The poisoned-oracle tests prove the engagement rule from both sides: an
engaged batch run never constructs :class:`LinkQueues` at all, and a
full trace or a scheduler that is not ``round_batchable`` takes the heap.

The incremental sorted view (the non-``head_only`` candidate list) is
covered by a push/pop state-machine property against a from-scratch
re-sort.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.errors import ProtocolError
from repro.experiments import get_spec
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
    """Global-FIFO order, batch engine declined: the heap oracle."""

    round_batchable = False


def _assert_stats_equal(left, right) -> None:
    for field in STAT_FIELDS:
        assert getattr(left, field) == getattr(right, field), field


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
        # Identical delivery order, message for message...
        assert batch_journal == heap_journal == full_journal
        # ...and identical accounting, field for field.
        _assert_stats_equal(batch, heap)
        _assert_stats_equal(batch, full.stats())

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
        assert batch_journal == heap_journal == full_journal
        _assert_stats_equal(batch, heap)
        _assert_stats_equal(batch, full.stats())

    def test_experiment_table_identical(self, monkeypatch):
        """A whole experiment renders byte-identically on both engines.

        E6 drives the line substrate (the ring-to-line compiler) whose
        quick cells stream metrics; a FIFO scheduler that declines
        batching puts every one of them on the heap.
        """
        batched = get_spec("E6").run(True).render()
        monkeypatch.setattr(FifoScheduler, "round_batchable", False)
        heap = get_spec("E6").run(True).render()
        assert batched == heap


class TestUnidirectionalBatch:
    """The uni substrate on the engine: the global FIFO deque is the oracle.

    The unidirectional simulator has no scheduler or ``LinkQueues`` —
    its deque loop *is* global FIFO — so parity pins the engine against
    that loop instead of a heap.  Only full traces take the deque loop,
    so ``run(trace="full").stats()`` is the oracle.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_uni_batch_equals_deque_and_full(self, seed, n):
        batch, batch_journal = _run_chaos_uni(seed, n, "metrics")
        full, full_journal = _run_chaos_uni(seed, n, "full")
        # Identical delivery order, message for message...
        assert batch_journal == full_journal
        # ...and identical accounting, field for field.
        _assert_stats_equal(batch, full.stats())

    def test_uni_ccw_error_identical(self):
        """The engine's CCW rejection matches the deque loop's, word for
        word (the unidirectional model violation, not the line's)."""

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
        assert "unidirectional algorithms may only send CW" in batched
        assert batched == message("full")

    def test_uni_cap_errors_identical(self):
        """The round-hoisted cap raises exactly like the deque loop's."""

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

        def message(trace):
            from repro.errors import RingError

            with pytest.raises(RingError) as info:
                run_unidirectional(
                    _ForeverAlgo(), "aaaa", max_messages=10, trace=trace
                )
            return str(info.value)

        assert message("metrics") == message("full")

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

    def test_uni_batch_path_never_builds_the_deque(self, monkeypatch):
        """Poisoned deque: an engaged metrics run returns before the
        oracle loop's pending queue is ever constructed."""
        import repro.ring.unidirectional as module

        class _Poisoned:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "round-batched run built the oracle deque"
                )

        monkeypatch.setattr(module, "deque", _Poisoned)
        stats, _ = _run_chaos_uni(7, 9, "metrics")
        assert stats.decision is True
        # Full traces still need the deque loop.
        with pytest.raises(AssertionError, match="built the oracle"):
            _run_chaos_uni(7, 9, "full")


class TestEngagementRules:
    def test_scheduler_capability_flags(self):
        assert FifoScheduler.head_only and FifoScheduler.round_batchable
        assert not LifoScheduler.head_only
        assert not LifoScheduler.round_batchable
        assert not RandomScheduler.head_only
        assert not AdversarialScheduler.round_batchable
        # The bench/oracle idiom: head-only without batchability.
        assert _HeapFifo.head_only and not _HeapFifo.round_batchable

    @pytest.mark.parametrize("substrate", ["bidi", "line"])
    def test_batch_path_never_consults_the_oracle(
        self, substrate, monkeypatch
    ):
        """Poisoned LinkQueues: an engaged batch run must never build it."""

        class _Poisoned:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "round-batched run consulted the heap oracle"
                )

        if substrate == "bidi":
            import repro.ring.bidirectional as module

            def run(trace, scheduler=FifoScheduler):
                return _run_chaos_bidi(7, 9, scheduler(), trace)[0]
        else:
            import repro.ring.line as module

            def run(trace, scheduler=FifoScheduler):
                return _run_chaos_line(7, 9, scheduler(), trace)[0]

        monkeypatch.setattr(module, "LinkQueues", _Poisoned)
        # metrics + FifoScheduler: the batch engine carries the run.
        stats = run("metrics")
        assert stats.decision is True
        # Full traces still need the oracle...
        with pytest.raises(AssertionError, match="consulted the heap"):
            run("full")
        # ...and so does a FIFO scheduler that declines batching.
        with pytest.raises(AssertionError, match="consulted the heap"):
            run("metrics", _HeapFifo)

    def test_line_off_end_errors_identical(self):
        """The batch enqueue validator matches the heap's, word for word."""

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

    def test_message_cap_errors_identical(self):
        """The round-hoisted cap check raises exactly like the heap's."""

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
    """The non-head_only candidate list, maintained without re-sorting."""

    _KEYS = ["a", "b", "c", "d", "e"]

    def _check(self, queues: LinkQueues) -> None:
        expected = sorted(
            (queues.queues[key][0][0], key) for key in queues.active
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
        queues = LinkQueues(use_heap=False)
        for op in ops:
            if op % 2 == 0 or not queues.active:
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
