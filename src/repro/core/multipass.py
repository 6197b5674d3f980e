"""Multi-pass unidirectional algorithms and Theorem 3's one-pass compilation.

Theorem 3 proves that *any* unidirectional algorithm with ``O(n)`` bits
recognizes a regular language, by compiling it to an equivalent one-pass
algorithm with ``O(n)`` bits.  The proof has two steps, both implemented:

* **A -> A' (history forwarding)** — :func:`history_forwarding` builds an
  equivalent multi-pass algorithm whose followers are *stateless*: in pass
  ``i`` each processor circulates its full output history (``i`` messages),
  so a follower can replay its previous behavior from the incoming message
  alone.  Bit complexity grows by at most a factor of the pass count
  (still ``O(n)``).

* **A' -> A'' (sequence enumeration)** — :func:`compile_to_one_pass` builds
  the one-pass algorithm: the leader conceptually sends *every* possible
  sequence of ``pi`` messages it could emit; each follower applies its
  pass-fold to every candidate; the leader finally identifies the unique
  candidate consistent with its own behavior and takes that run's decision.
  Messages enumerate a constant-size candidate table, so the cost is
  ``O(n)`` with a constant exponential in ``|M|`` and ``pi`` — exactly the
  paper's bound (see also §7(5)'s ``2^c n`` remark).

The compiled object is a :class:`~repro.core.regular_onepass.OnePassTransducer`,
so Theorem 2's message-graph extraction applies to it directly — composing
E3 with E2 turns the paper's chain "O(n) multi-pass => O(n) one-pass =>
regular" into running code.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence

from repro.bits import BitReader, Bits, encode_elias_gamma, encode_fixed, fixed_width_for
from repro.errors import CompilationError, ProtocolError
from repro.core.regular_onepass import OnePassTransducer
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RelayProgram, RingAlgorithm

__all__ = [
    "MultipassAlgorithm",
    "MultipassRingAlgorithm",
    "history_forwarding",
    "compile_to_one_pass",
    "collect_message_space",
]

Memory = Any


class MultipassAlgorithm(ABC):
    """A unidirectional algorithm structured as a fixed number of passes.

    Pass ``t`` starts with the leader emitting one message; every follower
    transforms it (keeping local memory across passes); the leader receives
    the transformed message at the end of the pass and either starts the
    next pass or decides.
    """

    name: str = "multipass"

    def __init__(self, alphabet: Sequence[str], passes: int) -> None:
        self.alphabet = tuple(alphabet)
        self.passes = passes
        if passes < 1:
            raise ProtocolError("a multipass algorithm needs at least one pass")

    @abstractmethod
    def leader_start(self, letter: str) -> tuple[Memory, Bits]:
        """Initial leader memory and the first pass's message."""

    @abstractmethod
    def leader_pass_end(
        self, letter: str, memory: Memory, incoming: Bits
    ) -> tuple[Memory, Bits | None, bool | None]:
        """Handle the message closing a pass.

        Return ``(memory, next_message, decision)`` where exactly one of
        ``next_message`` (continue) and ``decision`` (terminate) is not
        None.
        """

    @abstractmethod
    def follower_step(
        self, letter: str, memory: Memory, incoming: Bits
    ) -> tuple[Memory, Bits]:
        """One follower transformation; memory persists across passes."""

    def follower_initial_memory(self) -> Memory:
        """Fresh follower memory (default None)."""
        return None


class _MultipassLeader(Processor):
    """Leader processor running a :class:`MultipassAlgorithm`.

    With :class:`_MultipassFollower`, the full-trace path and the oracle
    of the relay walk (:meth:`MultipassRingAlgorithm.relay_program`).
    """

    def __init__(self, letter: str, algorithm: MultipassAlgorithm) -> None:
        super().__init__(letter, is_leader=True)
        self._algorithm = algorithm
        self._memory: Memory = None

    def on_start(self) -> Iterable[Send]:
        self._memory, message = self._algorithm.leader_start(self.letter)
        return [Send.cw(message)]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self._memory, nxt, decision = self._algorithm.leader_pass_end(
            self.letter, self._memory, message
        )
        if decision is not None:
            self.decide(decision)
            return ()
        if nxt is None:
            raise ProtocolError("leader_pass_end returned neither message nor decision")
        return [Send.cw(nxt)]


class _MultipassFollower(Processor):
    """Follower processor running a :class:`MultipassAlgorithm`."""

    def __init__(self, letter: str, algorithm: MultipassAlgorithm) -> None:
        super().__init__(letter, is_leader=False)
        self._algorithm = algorithm
        self._memory: Memory = algorithm.follower_initial_memory()

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self._memory, outgoing = self._algorithm.follower_step(
            self.letter, self._memory, message
        )
        return [Send.cw(outgoing)]


class MultipassRingAlgorithm(RingAlgorithm):
    """Adapter running a :class:`MultipassAlgorithm` on the ring simulators.

    A ``trace="metrics"`` unidirectional run walks the word through
    :meth:`relay_program`; every other run goes through the
    leader/follower processors above.
    """

    def __init__(self, algorithm: MultipassAlgorithm) -> None:
        super().__init__(algorithm.alphabet)
        self.multipass = algorithm
        self.name = algorithm.name

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _MultipassLeader(letter, self.multipass)
        return _MultipassFollower(letter, self.multipass)

    def relay_program(self) -> RelayProgram:
        """The algorithm's own steps; its leader must decide or go on."""
        algorithm = self.multipass
        leader_pass_end = algorithm.leader_pass_end

        def pass_end(letter: str, memory: Memory, incoming: Bits) -> tuple:
            memory, nxt, decision = leader_pass_end(letter, memory, incoming)
            if decision is None and nxt is None:
                raise ProtocolError(
                    "leader_pass_end returned neither message nor decision"
                )
            return memory, nxt, decision

        fresh = algorithm.follower_initial_memory
        if type(algorithm).follower_initial_memory is (
            MultipassAlgorithm.follower_initial_memory
        ):
            fresh = None  # the default memory: skip n calls returning None
        return RelayProgram(
            algorithm.leader_start, algorithm.follower_step, pass_end, fresh
        )


# ----------------------------------------------------------------------
# Step 1 of Theorem 3: A -> A' with stateless followers
# ----------------------------------------------------------------------


class _HistoryForwarding(MultipassAlgorithm):
    """Equivalent algorithm circulating full output histories (stateless
    followers).

    Pass-``t`` messages encode a processor's outputs for passes ``1..t`` as
    ``gamma(t)`` followed by ``t`` fixed-width indices into the message
    space.  A follower replays its own steps over the predecessor's history
    on every pass, so it needs no memory.
    """

    def __init__(self, inner: MultipassAlgorithm, space: Sequence[Bits]) -> None:
        super().__init__(inner.alphabet, inner.passes)
        self.name = f"history[{inner.name}]"
        self._inner = inner
        self._space = list(space)
        self._index = {bits: i for i, bits in enumerate(self._space)}
        self._width = fixed_width_for(len(self._space))

    # -- history codec --------------------------------------------------

    def _encode_history(self, history: Sequence[Bits]) -> Bits:
        message = encode_elias_gamma(len(history))
        for item in history:
            if item not in self._index:
                raise CompilationError(
                    f"message {item!r} outside the declared message space"
                )
            message = message + encode_fixed(self._index[item], self._width)
        return message

    def _decode_history(self, message: Bits) -> list[Bits]:
        reader = BitReader(message)
        count = reader.read_elias_gamma()
        history = [self._space[reader.read_fixed(self._width)] for _ in range(count)]
        reader.expect_exhausted()
        return history

    # -- multipass interface ---------------------------------------------

    def leader_start(self, letter: str) -> tuple[Memory, Bits]:
        inner_memory, first = self._inner.leader_start(letter)
        memory = {"inner": inner_memory, "outputs": [first]}
        return memory, self._encode_history([first])

    def leader_pass_end(
        self, letter: str, memory: Memory, incoming: Bits
    ) -> tuple[Memory, Bits | None, bool | None]:
        history = self._decode_history(incoming)
        # The predecessor's history item for the just-finished pass is the
        # message the inner leader would have received.
        inner_incoming = history[-1]
        inner_memory, nxt, decision = self._inner.leader_pass_end(
            letter, memory["inner"], inner_incoming
        )
        memory = {"inner": inner_memory, "outputs": list(memory["outputs"])}
        if decision is not None:
            return memory, None, decision
        assert nxt is not None
        memory["outputs"].append(nxt)
        return memory, self._encode_history(memory["outputs"]), None

    def follower_step(
        self, letter: str, memory: Memory, incoming: Bits
    ) -> tuple[Memory, Bits]:
        history = self._decode_history(incoming)
        # Stateless replay: fold the inner follower over the whole history.
        inner_memory = self._inner.follower_initial_memory()
        outputs: list[Bits] = []
        for item in history:
            inner_memory, out = self._inner.follower_step(letter, inner_memory, item)
            outputs.append(out)
        return None, self._encode_history(outputs)


def history_forwarding(
    inner: MultipassAlgorithm, space: Sequence[Bits]
) -> MultipassAlgorithm:
    """Theorem 3 step 1: make followers stateless by forwarding histories."""
    return _HistoryForwarding(inner, space)


# ----------------------------------------------------------------------
# Step 2 of Theorem 3: A' -> A'' one-pass compilation
# ----------------------------------------------------------------------


class _CompiledOnePass(OnePassTransducer):
    """The sequence-enumeration transducer (see module docstring).

    The candidate leader-output sequences are enumerated in a canonical
    order shared by all processors (part of the look-up table), so the wire
    format need only carry, for each candidate, the *current* transformed
    sequence: ``|M|^pi * pi * ceil(log2 |M|)`` bits — constant in ``n``.
    """

    def __init__(
        self,
        inner: MultipassAlgorithm,
        space: Sequence[Bits],
        max_candidates: int = 100_000,
    ) -> None:
        self._inner = inner
        self._space = list(space)
        self._index = {bits: i for i, bits in enumerate(self._space)}
        self._width = fixed_width_for(len(self._space))
        self._passes = inner.passes
        count = len(self._space) ** self._passes
        if count > max_candidates:
            raise CompilationError(
                f"|M|^pi = {count} candidate sequences exceed the "
                f"{max_candidates} limit; Theorem 3 remains a constant, "
                "but not one this host wants to enumerate"
            )
        self._candidates: list[tuple[Bits, ...]] = [
            tuple(seq)
            for seq in itertools.product(self._space, repeat=self._passes)
        ]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._inner.alphabet

    @property
    def candidate_count(self) -> int:
        """Number of enumerated leader-output sequences (``|M|^pi``)."""
        return len(self._candidates)

    # -- wire format ------------------------------------------------------

    def _encode_table(self, table: Sequence[tuple[Bits, ...]]) -> Bits:
        message = Bits.empty()
        for seq in table:
            for item in seq:
                if item not in self._index:
                    raise CompilationError(
                        f"message {item!r} outside the declared message space"
                    )
                message = message + encode_fixed(self._index[item], self._width)
        return message

    def _decode_table(self, message: Bits) -> list[tuple[Bits, ...]]:
        reader = BitReader(message)
        table = []
        for _ in range(len(self._candidates)):
            table.append(
                tuple(
                    self._space[reader.read_fixed(self._width)]
                    for _ in range(self._passes)
                )
            )
        reader.expect_exhausted()
        return table

    # -- transducer interface ----------------------------------------------

    def initial_message(self, leader_letter: str) -> Bits:
        return self._encode_table(self._candidates)

    def relay(self, letter: str, incoming: Bits) -> Bits:
        table = self._decode_table(incoming)
        transformed = []
        for seq in table:
            memory = self._inner.follower_initial_memory()
            outputs = []
            for item in seq:
                memory, out = self._inner.follower_step(letter, memory, item)
                outputs.append(out)
            transformed.append(tuple(outputs))
        return self._encode_table(transformed)

    def decide(self, leader_letter: str, final: Bits) -> bool:
        table = self._decode_table(final)
        decisions = []
        for candidate, received in zip(self._candidates, table):
            decision = self._consistent_decision(leader_letter, candidate, received)
            if decision is not None:
                decisions.append(decision)
        if not decisions:
            raise CompilationError(
                "no candidate sequence is consistent with the leader; "
                "the message space is incomplete"
            )
        if len(set(decisions)) != 1:
            raise CompilationError(
                "multiple consistent candidates disagree; the inner "
                "algorithm is not deterministic over the message space"
            )
        return decisions[0]

    def _consistent_decision(
        self,
        letter: str,
        candidate: tuple[Bits, ...],
        received: tuple[Bits, ...],
    ) -> bool | None:
        """Replay the leader against ``received``; check it emits ``candidate``.

        Returns the decision for a consistent candidate, None otherwise.
        """
        memory, first = self._inner.leader_start(letter)
        if first != candidate[0]:
            return None
        for index in range(self._passes):
            memory, nxt, decision = self._inner.leader_pass_end(
                letter, memory, received[index]
            )
            if decision is not None:
                # Consistent only if the leader used exactly the candidate
                # prefix it was assumed to emit.
                return decision if index == self._passes - 1 else None
            if index == self._passes - 1:
                return None  # ran out of passes without deciding
            if nxt != candidate[index + 1]:
                return None
        return None


def compile_to_one_pass(
    inner: MultipassAlgorithm,
    space: Sequence[Bits],
    max_candidates: int = 100_000,
) -> _CompiledOnePass:
    """Theorem 3 step 2: compile a multipass algorithm to one pass.

    ``space`` must contain every message ``inner`` can send in any
    execution (see :func:`collect_message_space`); violations surface as
    :class:`CompilationError` during encoding.
    """
    return _CompiledOnePass(inner, space, max_candidates=max_candidates)


def collect_message_space(
    algorithm: RingAlgorithm, words: Iterable[str]
) -> list[Bits]:
    """Empirically collect the set of distinct messages over sample runs.

    For the finite-message algorithms Theorem 3 applies to (Corollary 3),
    running over all short words exhausts the space; the compiler verifies
    closure at run time, so an incomplete space fails loudly, not silently.
    """
    from repro.ring.unidirectional import run_unidirectional

    seen: dict[Bits, None] = {}
    for word in words:
        trace = run_unidirectional(algorithm, word)
        for event in trace.events:
            seen.setdefault(event.bits, None)
    return list(seen)
