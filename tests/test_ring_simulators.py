"""Tests for the ring simulators: unidirectional, bidirectional, line.

Model enforcement (only the leader decides, unidirectional means CW-only,
quiescence requires a decision), exact bit accounting, pass decomposition,
and scheduler invariance for deterministic token algorithms.
"""

from __future__ import annotations

import pytest

from repro.bits import Bits
from repro.errors import ProtocolError, RingError
from repro.ring import (
    BidirectionalRing,
    Direction,
    LineNetwork,
    Send,
    UnidirectionalRing,
    run_bidirectional,
    run_unidirectional,
)
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import (
    AdversarialScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
)


class _EchoLeader(Processor):
    """Sends one bit CW; decides True when it returns."""

    def on_start(self):
        return [Send.cw(Bits("1"))]

    def on_receive(self, message, arrived_from):
        self.decide(True)
        return ()


class _Forward(Processor):
    def on_receive(self, message, arrived_from):
        return [Send.cw(message)]


class EchoRing(RingAlgorithm):
    name = "echo"

    def __init__(self):
        super().__init__("ab")

    def create_processor(self, letter, is_leader):
        if is_leader:
            return _EchoLeader(letter, is_leader=True)
        return _Forward(letter, is_leader=False)


class TestDirection:
    def test_opposite(self):
        assert Direction.CW.opposite() is Direction.CCW
        assert Direction.CCW.opposite() is Direction.CW

    def test_step(self):
        assert Direction.CW.step(0, 4) == 1
        assert Direction.CW.step(3, 4) == 0
        assert Direction.CCW.step(0, 4) == 3

    def test_send_constructors(self):
        assert Send.cw(Bits("1")).direction is Direction.CW
        assert Send.ccw(Bits("1")).direction is Direction.CCW


class TestUnidirectional:
    def test_basic_loop(self):
        trace = run_unidirectional(EchoRing(), "abab")
        assert trace.decision is True
        assert trace.message_count == 4
        assert trace.total_bits == 4
        assert [e.sender for e in trace.events] == [0, 1, 2, 3]
        assert [e.receiver for e in trace.events] == [1, 2, 3, 0]

    def test_single_processor_ring(self):
        trace = run_unidirectional(EchoRing(), "a")
        assert trace.decision is True
        assert trace.message_count == 1

    def test_empty_ring_rejected(self):
        with pytest.raises(RingError):
            UnidirectionalRing(EchoRing(), "")

    def test_foreign_letter_rejected(self):
        with pytest.raises(ProtocolError, match="not in algorithm alphabet"):
            UnidirectionalRing(EchoRing(), "abz")

    def test_ccw_send_rejected(self):
        class BadLeader(_EchoLeader):
            def on_start(self):
                return [Send.ccw(Bits("1"))]

        class Bad(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return BadLeader(letter, is_leader=True)
                return _Forward(letter, is_leader=False)

        with pytest.raises(ProtocolError, match="only send CW"):
            run_unidirectional(Bad(), "ab")

    def test_follower_cannot_decide(self):
        class SneakyFollower(_Forward):
            def on_receive(self, message, arrived_from):
                self.decide(True)
                return ()

        class Sneaky(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return _EchoLeader(letter, is_leader=True)
                return SneakyFollower(letter, is_leader=False)

        with pytest.raises(ProtocolError, match="only the leader"):
            run_unidirectional(Sneaky(), "ab")

    def test_no_decision_is_protocol_error(self):
        class Mute(_EchoLeader):
            def on_receive(self, message, arrived_from):
                return ()  # never decides

        class MuteRing(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return Mute(letter, is_leader=True)
                return _Forward(letter, is_leader=False)

        with pytest.raises(ProtocolError, match="without a leader decision"):
            run_unidirectional(MuteRing(), "ab")

    def test_message_cap(self):
        class Forever(_EchoLeader):
            def on_receive(self, message, arrived_from):
                return [Send.cw(message)]  # never stops

        class ForeverRing(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return Forever(letter, is_leader=True)
                return _Forward(letter, is_leader=False)

        with pytest.raises(RingError, match="diverge"):
            run_unidirectional(ForeverRing(), "ab", max_messages=50)

    def test_conflicting_decisions(self):
        class Flipper(_EchoLeader):
            def on_receive(self, message, arrived_from):
                self.decide(True)
                with pytest.raises(ProtocolError):
                    self.decide(False)
                self.decide(True)  # idempotent re-decide is fine
                return ()

        class FlipRing(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return Flipper(letter, is_leader=True)
                return _Forward(letter, is_leader=False)

        assert run_unidirectional(FlipRing(), "ab").decision is True

    def test_non_send_return_rejected(self):
        class Wrong(_EchoLeader):
            def on_start(self):
                return [("cw", Bits("1"))]

        class WrongRing(EchoRing):
            def create_processor(self, letter, is_leader):
                if is_leader:
                    return Wrong(letter, is_leader=True)
                return _Forward(letter, is_leader=False)

        with pytest.raises(ProtocolError, match="must yield Send"):
            run_unidirectional(WrongRing(), "ab")


class _PingPongLeader(Processor):
    """Bidirectional exercise: sends CCW, waits for reply from CCW side."""

    def on_start(self):
        return [Send.ccw(Bits("10"))]

    def on_receive(self, message, arrived_from):
        self.decide(message == Bits("10"))
        return ()


class _PingPongFollower(Processor):
    def on_receive(self, message, arrived_from):
        # Keep the message moving in its travel direction.
        return [Send(arrived_from.opposite(), message)]


class PingPong(RingAlgorithm):
    name = "ping-pong"

    def __init__(self):
        super().__init__("ab")

    def create_processor(self, letter, is_leader):
        if is_leader:
            return _PingPongLeader(letter, is_leader=True)
        return _PingPongFollower(letter, is_leader=False)


class TestBidirectional:
    def test_ccw_travel(self):
        trace = run_bidirectional(PingPong(), "aaaa")
        assert trace.decision is True
        assert trace.message_count == 4
        assert all(e.direction is Direction.CCW for e in trace.events)
        assert [e.receiver for e in trace.events] == [3, 2, 1, 0]

    def test_two_processor_ring(self):
        trace = run_bidirectional(PingPong(), "ab")
        assert trace.decision is True
        assert trace.message_count == 2

    @pytest.mark.parametrize(
        "scheduler",
        [
            FifoScheduler(),
            LifoScheduler(),
            RandomScheduler(3),
            AdversarialScheduler(),
        ],
        ids=["fifo", "lifo", "random", "adversarial"],
    )
    def test_scheduler_invariance_for_token_algorithms(self, scheduler):
        """A one-in-flight algorithm is oblivious to the scheduler."""
        trace = run_bidirectional(PingPong(), "abab", scheduler=scheduler)
        assert trace.decision is True
        assert trace.total_bits == 8
        assert trace.max_in_flight == 1

    def test_bad_scheduler_choice(self):
        # A scheduler that overrides ``choose`` is not pure FIFO, so it
        # must not inherit FifoScheduler's ``round_batchable`` promise:
        # batchable schedulers are never asked to choose.
        class Broken(FifoScheduler):
            round_batchable = False

            def choose(self, candidates):
                return 99

        with pytest.raises(RingError, match="scheduler chose"):
            run_bidirectional(PingPong(), "ab", scheduler=Broken())

    def test_choose_override_must_declare_round_batchable(self):
        # Inheriting round_batchable = True would silently bypass choose().
        with pytest.raises(TypeError, match="round_batchable"):

            class Silent(FifoScheduler):
                def choose(self, candidates):
                    return len(candidates) - 1

        class Declared(FifoScheduler):
            round_batchable = False

            def choose(self, candidates):
                return len(candidates) - 1

        class Inherits(Declared):  # inherits False: asked, so allowed
            def choose(self, candidates):
                return 0

        assert not Declared.round_batchable and not Inherits.round_batchable

    def test_quiesce_without_decision(self):
        class Mute(RingAlgorithm):
            name = "mute"

            def __init__(self):
                super().__init__("a")

            def create_processor(self, letter, is_leader):
                leader = is_leader

                class P(Processor):
                    def on_start(self):
                        return ()

                    def on_receive(self, message, arrived_from):
                        return ()

                return P(letter, is_leader=leader)

        with pytest.raises(ProtocolError):
            run_bidirectional(Mute(), "aa")


class TestLineNetwork:
    def test_line_delivery(self):
        class LineLeader(Processor):
            def on_start(self):
                return [Send.cw(Bits("1"))]

            def on_receive(self, message, arrived_from):
                self.decide(True)
                return ()

        class LineEcho(Processor):
            def __init__(self, letter, is_leader, is_last):
                super().__init__(letter, is_leader)
                self._is_last = is_last

            def on_receive(self, message, arrived_from):
                if self._is_last:
                    return [Send.ccw(message)]  # bounce back
                return [Send(arrived_from.opposite(), message)]

        class LineAlgo(RingAlgorithm):
            name = "line-echo"

            def __init__(self):
                super().__init__("ab")

            def create_processor(self, letter, is_leader):
                raise ProtocolError("positioned only")

            def create_processor_positioned(self, letter, is_leader, index, size):
                if is_leader:
                    return LineLeader(letter, is_leader=True)
                return LineEcho(letter, is_leader, is_last=index == size - 1)

        trace = LineNetwork(LineAlgo(), "abab").run()
        assert trace.decision is True
        # 3 hops right + 3 hops back.
        assert trace.message_count == 6

    def test_off_end_send_rejected(self):
        class Bad(RingAlgorithm):
            name = "bad-line"

            def __init__(self):
                super().__init__("a")

            def create_processor(self, letter, is_leader):
                class P(Processor):
                    def on_start(self):
                        return [Send.ccw(Bits("1"))]  # off the left end

                    def on_receive(self, message, arrived_from):
                        return ()

                return P(letter, is_leader)

        with pytest.raises(ProtocolError, match="off the end"):
            LineNetwork(Bad(), "aa").run()


class TestTraceAccounting:
    def test_bits_per_link_and_min_link(self):
        trace = run_unidirectional(EchoRing(), "abab")
        per_link = trace.bits_per_link()
        assert per_link == {0: 1, 1: 1, 2: 1, 3: 1}
        assert trace.min_bits_link() == 0  # tie broken by smallest id

    def test_passes(self):
        trace = run_unidirectional(EchoRing(), "abab")
        assert trace.pass_count() == 1
        assert trace.bits_of_pass(0) == 4
        with pytest.raises(RingError):
            trace.bits_of_pass(1)

    def test_messages_per_processor(self):
        trace = run_unidirectional(EchoRing(), "aba")
        assert trace.messages_per_processor() == [1, 1, 1]

    def test_information_states(self):
        trace = run_unidirectional(EchoRing(), "abab")
        state = trace.information_state(1)
        assert state.letter == "b"
        assert state.received(Direction.CCW) == (Bits("1"),)
        assert state.sent(Direction.CW) == (Bits("1"),)
        assert state.bit_size == 2
        assert state.message_count == 2
        # Followers with the same letter share states; leader differs.
        assert trace.distinct_information_states() == 3

    def test_information_state_bounds(self):
        trace = run_unidirectional(EchoRing(), "ab")
        with pytest.raises(RingError):
            trace.information_state(5)

    def test_summary(self):
        trace = run_unidirectional(EchoRing(), "ab")
        summary = trace.summary()
        assert "n=2" in summary and "decision=True" in summary
