"""Theorem 7: compiling a linear-bit bidirectional algorithm to one pass
direction.

Two stages, mirroring the paper's proof exactly.

Stage 1 — **line embedding** (:class:`LineEmbeddedAlgorithm`).  Cut the
ring at the leader's CCW link and run the bidirectional algorithm on the
line ``p_0 p_1 ... p_{n-1}``.  Adjacent communication maps 1:1 (one tag bit
distinguishes it); the severed ``p_0 <-> p_{n-1}`` channel is *tunneled*
through the line with the tag bit set.  The paper charges the setup
message ("you are the end of the line") to zero; here the end processors
learn their role through the positioned factory hook, which is the same
knowledge.  Bit complexity: each original message gains one bit, and each
of the at most ``c1 * n`` cut-link messages costs ``(n-1)(1 + |m|)``
tunneled bits — ``O(n)`` total when the original is ``O(n)`` with
bounded messages (Corollaries 3-4).

Stage 2 — **accepting-information-state enumeration**
(:class:`BidiToUnidiCompiler`).  For each accepting information state
``IS0`` of the line algorithm's leader, one unidirectional pass checks
whether a line execution terminating with the leader in ``IS0`` exists:
every processor forwards the set of *its own* candidate information states
consistent with some candidate of its predecessor (consistency = the two
event sequences on the shared link can be interleaved FIFO-correctly), and
the last processor reports whether one of its right-end candidates closes
the chain.  The leader accepts on the first successful pass, rejects after
exhausting its accepting states.  Sets are bitmaps over a fixed catalog,
so each pass costs ``O(n)`` bits and the pass count is a constant of the
algorithm — ``O(n)`` overall, which is what Theorem 7 needs before handing
off to Theorem 3.

The catalog is materialized by simulation, where the paper quantifies
over every reachable information state: see SUBSTITUTIONS.md, "Theorem
7, information-state catalog".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.bits import BitReader, Bits
from repro.errors import CompilationError, ProtocolError
from repro.ring.line import LineNetwork
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.trace import InformationState

__all__ = ["LineEmbeddedAlgorithm", "BidiToUnidiCompiler"]

_NORMAL, _TUNNEL = 0, 1


class _LineWrappedProcessor(Processor):
    """Stage-1 wrapper: route the inner ring processor's traffic on a line."""

    def __init__(
        self,
        inner: Processor,
        index: int,
        size: int,
    ) -> None:
        super().__init__(inner.letter, inner.is_leader)
        self._inner = inner
        self._index = index
        self._size = size
        self._is_left = index == 0
        self._is_right = index == size - 1

    @property
    def decision(self) -> bool | None:  # type: ignore[override]
        return self._inner.decision

    # -- outbound mapping --------------------------------------------------

    def _map_sends(self, sends: Iterable[Send]) -> list[Send]:
        mapped = []
        for send in sends:
            payload = Bits(send.bits)
            if self._is_left and send.direction is Direction.CCW:
                # Ring p_0 -> p_{n-1}: tunnel rightward along the line.
                mapped.append(Send.cw(Bits([_TUNNEL]) + payload))
            elif self._is_right and send.direction is Direction.CW:
                # Ring p_{n-1} -> p_0: tunnel leftward along the line.
                mapped.append(Send.ccw(Bits([_TUNNEL]) + payload))
            else:
                mapped.append(
                    Send(send.direction, Bits([_NORMAL]) + payload)
                )
        return mapped

    # -- processor interface -------------------------------------------------

    def on_start(self) -> Iterable[Send]:
        return self._map_sends(self._inner.on_start())

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        tag, payload = message[0], message[1:]
        if tag == _TUNNEL:
            if self._is_left:
                # Arrived from the far end: ring-wise this is p_{n-1},
                # i.e. the leader's CCW neighbor.
                return self._map_sends(
                    self._inner.on_receive(payload, Direction.CCW)
                )
            if self._is_right:
                # Ring-wise from p_0, the right end's CW neighbor.
                return self._map_sends(
                    self._inner.on_receive(payload, Direction.CW)
                )
            # Middle: forward unchanged, same direction of travel.
            travel = arrived_from.opposite()
            return [Send(travel, message)]
        return self._map_sends(self._inner.on_receive(payload, arrived_from))


class LineEmbeddedAlgorithm(RingAlgorithm):
    """Stage 1 of Theorem 7: run a bidirectional ring algorithm on a line.

    Execute through :class:`~repro.ring.line.LineNetwork`; the wrapped
    processors need to know whether they sit at an end, hence the
    positioned factory (the knowledge the paper's free setup message
    conveys).
    """

    def __init__(self, inner: RingAlgorithm) -> None:
        super().__init__(inner.alphabet)
        self.inner = inner
        self.name = f"line[{inner.name}]"

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        raise ProtocolError(
            "LineEmbeddedAlgorithm needs end-of-line knowledge; run it "
            "through LineNetwork (which calls the positioned factory)"
        )

    def create_processor_positioned(
        self, letter: str, is_leader: bool, index: int, size: int
    ) -> Processor:
        if size < 2:
            raise ProtocolError("the line embedding needs at least 2 processors")
        inner = self.inner.create_processor_positioned(
            letter, is_leader, index, size
        )
        return _LineWrappedProcessor(inner, index, size)

    def run_on_line(self, word: str):
        """Convenience: execute on the line and return the trace."""
        return LineNetwork(self, word, leader=0).run()


# ----------------------------------------------------------------------
# Stage 2: accepting-information-state enumeration
# ----------------------------------------------------------------------


def _link_events(
    state: InformationState, port: Direction
) -> tuple[tuple[str, Bits], ...]:
    """A processor's events restricted to one port, in order."""
    return tuple(
        (kind, bits) for kind, direction, bits in state.events if direction is port
    )


def _interleaving_feasible(
    left: tuple[tuple[str, Bits], ...], right: tuple[tuple[str, Bits], ...]
) -> bool:
    """Whether two adjacent event sequences admit a FIFO-valid interleaving.

    ``left`` is the left processor's CW-port log, ``right`` the right
    processor's CCW-port log.  Necessary condition checked first: the k-th
    message sent leftward/rightward equals the k-th received on the other
    side.  Then a BFS over (i, j) pointer pairs checks an order exists in
    which every receive is preceded by its matching send.
    """
    left_sends = [bits for kind, bits in left if kind == "sent"]
    right_recvs = [bits for kind, bits in right if kind == "received"]
    right_sends = [bits for kind, bits in right if kind == "sent"]
    left_recvs = [bits for kind, bits in left if kind == "received"]
    if left_sends != right_recvs or right_sends != left_recvs:
        return False

    @lru_cache(maxsize=None)
    def reachable(i: int, j: int, lr_sent: int, lr_recv: int, rl_sent: int, rl_recv: int) -> bool:
        if i == len(left) and j == len(right):
            return True
        if i < len(left):
            kind, _bits = left[i]
            if kind == "sent":
                if reachable(i + 1, j, lr_sent + 1, lr_recv, rl_sent, rl_recv):
                    return True
            elif rl_recv < rl_sent:  # a right->left message is in flight
                if reachable(i + 1, j, lr_sent, lr_recv, rl_sent, rl_recv + 1):
                    return True
        if j < len(right):
            kind, _bits = right[j]
            if kind == "sent":
                if reachable(i, j + 1, lr_sent, lr_recv, rl_sent + 1, rl_recv):
                    return True
            elif lr_recv < lr_sent:  # a left->right message is in flight
                if reachable(i, j + 1, lr_sent, lr_recv + 1, rl_sent, rl_recv):
                    return True
        return False

    result = reachable(0, 0, 0, 0, 0, 0)
    reachable.cache_clear()
    return result


class _Catalog:
    """The information-state catalog stage 2 enumerates over.

    Built by exhaustive simulation of the line algorithm on all words of
    lengths ``2 .. horizon`` (Corollary 3/4 guarantee the reachable state
    set of a linear-bit algorithm is finite, so the catalog stabilizes).
    """

    def __init__(
        self,
        line_algorithm: LineEmbeddedAlgorithm,
        horizon: int,
    ) -> None:
        self.states: list[InformationState] = []
        self._ids: dict[InformationState, int] = {}
        self.leader_accepting: set[int] = set()
        self.middle_by_letter: dict[str, set[int]] = {}
        self.end_by_letter: dict[str, set[int]] = {}
        alphabet = line_algorithm.alphabet
        for length in range(2, horizon + 1):
            for letters in itertools.product(alphabet, repeat=length):
                word = "".join(letters)
                trace = line_algorithm.run_on_line(word)
                states = trace.information_states()
                if trace.decision:
                    self.leader_accepting.add(self._intern(states[0]))
                for index in range(1, length - 1):
                    self.middle_by_letter.setdefault(word[index], set()).add(
                        self._intern(states[index])
                    )
                self.end_by_letter.setdefault(word[-1], set()).add(
                    self._intern(states[-1])
                )

    def _intern(self, state: InformationState) -> int:
        if state not in self._ids:
            self._ids[state] = len(self.states)
            self.states.append(state)
        return self._ids[state]

    def __len__(self) -> int:
        return len(self.states)


class _StageTwoLeader(Processor):
    def __init__(self, letter: str, compiler: "BidiToUnidiCompiler") -> None:
        super().__init__(letter, is_leader=True)
        self._compiler = compiler
        # Accepting states are per-letter: the leader only tries states an
        # execution with *its* letter could have produced.
        self._queue = [
            state_id
            for state_id in sorted(compiler.catalog.leader_accepting)
            if compiler.catalog.states[state_id].letter == letter
        ]

    def _next_pass(self) -> Iterable[Send]:
        if not self._queue:
            self.decide(False)
            return ()
        state_id = self._queue.pop(0)
        bitmap = [0] * len(self._compiler.catalog)
        bitmap[state_id] = 1
        return [Send.cw(self._compiler.encode(bitmap, verdict=0))]

    def on_start(self) -> Iterable[Send]:
        return self._next_pass()

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        _bitmap, verdict = self._compiler.decode(message)
        if verdict:
            self.decide(True)
            return ()
        return self._next_pass()


class _StageTwoFollower(Processor):
    def __init__(self, letter: str, compiler: "BidiToUnidiCompiler") -> None:
        super().__init__(letter, is_leader=False)
        self._compiler = compiler

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        compiler = self._compiler
        predecessors, _verdict = compiler.decode(message)
        received_ids = [i for i, bit in enumerate(predecessors) if bit]
        middle = compiler.catalog.middle_by_letter.get(self.letter, set())
        end = compiler.catalog.end_by_letter.get(self.letter, set())
        bitmap = [0] * len(compiler.catalog)
        for candidate in middle:
            if any(compiler.consistent(s, candidate) for s in received_ids):
                bitmap[candidate] = 1
        verdict = int(
            any(
                compiler.consistent(s, candidate)
                for candidate in end
                for s in received_ids
            )
        )
        return [Send.cw(compiler.encode(bitmap, verdict))]


class BidiToUnidiCompiler(RingAlgorithm):
    """Stage 2 of Theorem 7: the unidirectional equivalent ``A''``.

    Build from any bidirectional ring algorithm; stage 1 is applied
    internally.  ``horizon`` bounds the exhaustive catalog construction.
    The compiled algorithm is a genuine :class:`RingAlgorithm` running on
    :class:`~repro.ring.unidirectional.UnidirectionalRing` with
    ``O(n)``-bit passes (bitmap width is a constant of the source
    algorithm).
    """

    def __init__(self, inner: RingAlgorithm, horizon: int = 6) -> None:
        super().__init__(inner.alphabet)
        self.inner = inner
        self.line = LineEmbeddedAlgorithm(inner)
        self.catalog = _Catalog(self.line, horizon)
        if not self.catalog.states:
            raise CompilationError("catalog construction found no states")
        self.name = f"thm7[{inner.name}]"
        self._consistency_cache: dict[tuple[int, int], bool] = {}

    def consistent(self, left_id: int, right_id: int) -> bool:
        """Whether catalog states can be adjacent (left, right) on the line."""
        key = (left_id, right_id)
        if key not in self._consistency_cache:
            left = _link_events(self.catalog.states[left_id], Direction.CW)
            right = _link_events(self.catalog.states[right_id], Direction.CCW)
            self._consistency_cache[key] = _interleaving_feasible(left, right)
        return self._consistency_cache[key]

    # -- wire format ---------------------------------------------------------

    def encode(self, bitmap: Sequence[int], verdict: int) -> Bits:
        """verdict bit then the candidate bitmap (fixed catalog width)."""
        return Bits([verdict]) + Bits(bitmap)

    def decode(self, message: Bits) -> tuple[list[int], int]:
        """Inverse of :meth:`encode`."""
        reader = BitReader(message)
        verdict = reader.read_bit()
        bitmap = list(reader.read_bits(len(self.catalog)))
        reader.expect_exhausted()
        return bitmap, verdict

    def bits_per_message(self) -> int:
        """Constant message size: 1 verdict bit + the catalog bitmap."""
        return 1 + len(self.catalog)

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _StageTwoLeader(letter, self)
        return _StageTwoFollower(letter, self)
