"""Theorem 1: regular languages in ``O(n)`` bits, one unidirectional pass.

The construction: every processor holds a copy of a finite automaton
``FA = (Q, Sigma, delta, q0, F)``.  The leader sends ``delta(q0, sigma_1)``;
processor ``p_i`` forwards ``delta(q_{i-1}, sigma_i)``; when the message
returns, the leader holds ``delta(q0, w)`` and accepts iff it is final.
Each message is one state index of ``ceil(log2 |Q|)`` bits, so the
execution costs exactly ``ceil(log2 |Q|) * n`` bits — the E1 experiment
checks this equality, not just the O-class.

The module also defines the *one-pass transducer* abstraction that
Theorem 2's message graph analyzes: any one-pass algorithm is a triple
(initial message from the leader's letter, per-letter relay function,
leader decision from the final message).  :class:`TransducerRingAlgorithm`
adapts a transducer back into a ring algorithm so both directions of the
regular-iff-linear-bits equivalence are executable: a ``trace="metrics"``
run on either ring walks the word through its
:meth:`~TransducerRingAlgorithm.relay_program`, and every full trace goes
through its leader/follower processors, which are also the walk's test
oracle.  Theorem 1's relay is a table lookup: per letter, a list from
state index to the encoded next state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable

from repro.automata.dfa import DFA
from repro.automata.minimize import minimize
from repro.bits import Bits, decode_fixed, encode_fixed, fixed_width_for
from repro.errors import ProtocolError
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RelayProgram, RingAlgorithm

__all__ = ["OnePassTransducer", "TransducerRingAlgorithm", "DFARecognizer"]


class OnePassTransducer(ABC):
    """A one-pass unidirectional algorithm in functional form.

    This is the object Theorem 2 reasons about: the behavior of the (single)
    pass is fully determined by what the leader first sends, how a follower
    maps (letter, incoming) to outgoing, and how the leader decides.
    """

    @property
    @abstractmethod
    def alphabet(self) -> tuple[str, ...]:
        """Input alphabet."""

    @abstractmethod
    def initial_message(self, leader_letter: str) -> Bits:
        """The message the leader emits on start, given its own letter."""

    @abstractmethod
    def relay(self, letter: str, incoming: Bits) -> Bits:
        """A follower's response to ``incoming`` given its letter."""

    @abstractmethod
    def decide(self, leader_letter: str, final: Bits) -> bool:
        """The leader's decision upon the message's return."""


class _TransducerLeader(Processor):
    """Leader processor executing a one-pass transducer.

    With :class:`_TransducerFollower`, the full-trace path and the oracle
    of the relay walk (:meth:`TransducerRingAlgorithm.relay_program`).
    """

    def __init__(self, transducer: OnePassTransducer, letter: str) -> None:
        super().__init__(letter, is_leader=True)
        self._transducer = transducer

    def on_start(self) -> Iterable[Send]:
        return [Send.cw(self._transducer.initial_message(self.letter))]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self.decide(self._transducer.decide(self.letter, message))
        return ()


class _TransducerFollower(Processor):
    """Follower processor executing a one-pass transducer."""

    def __init__(self, transducer: OnePassTransducer, letter: str) -> None:
        super().__init__(letter, is_leader=False)
        self._transducer = transducer
        self._fired = False

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        if self._fired:
            raise ProtocolError(
                "one-pass follower received a second message"
            )
        self._fired = True
        return [Send.cw(self._transducer.relay(self.letter, message))]


class TransducerRingAlgorithm(RingAlgorithm):
    """Adapter: run a :class:`OnePassTransducer` on the ring simulators."""

    def __init__(self, transducer: OnePassTransducer, name: str | None = None) -> None:
        super().__init__(transducer.alphabet)
        self.transducer = transducer
        self.name = name if name is not None else type(transducer).__name__

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _TransducerLeader(self.transducer, letter)
        return _TransducerFollower(self.transducer, letter)

    def relay_program(self) -> RelayProgram:
        """One pass: the transducer's relay at each follower, no memory."""
        transducer = self.transducer
        initial_message = transducer.initial_message
        relay = transducer.relay
        decide = transducer.decide

        def start(letter: str) -> tuple[None, Bits]:
            return None, initial_message(letter)

        def step(letter: str, memory: None, incoming: Bits) -> tuple[None, Bits]:
            return None, relay(letter, incoming)

        def pass_end(letter: str, memory: None, final: Bits) -> tuple:
            return None, None, decide(letter, final)

        return RelayProgram(start, step, pass_end)


class _DFATransducer(OnePassTransducer):
    """Theorem 1's transducer: messages are fixed-width DFA state indices."""

    def __init__(self, dfa: DFA) -> None:
        self._dfa = dfa
        # Stable state indexing (sorted by repr for hashable heterogeneity).
        self._order: dict[Hashable, int] = {
            state: index
            for index, state in enumerate(sorted(dfa.states, key=repr))
        }
        self._states_by_index = {v: k for k, v in self._order.items()}
        self._width = fixed_width_for(len(dfa.states))
        # The relay's table: per letter, state index -> encoded next
        # state, padded with None up to 2**width for the indices that
        # name no state.
        self._next: dict[str, list[Bits | None]] = {
            letter: [
                self._encode(dfa.step(self._states_by_index[index], letter))
                if index in self._states_by_index
                else None
                for index in range(1 << self._width)
            ]
            for letter in dfa.alphabet
        }

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._dfa.alphabet

    @property
    def width(self) -> int:
        """Bits per message: ``ceil(log2 |Q|)`` (min 1)."""
        return self._width

    def _encode(self, state: Hashable) -> Bits:
        return encode_fixed(self._order[state], self._width)

    def _decode(self, message: Bits) -> Hashable:
        index = decode_fixed(message, self._width)
        if index not in self._states_by_index:
            raise ProtocolError(f"message decodes to unknown state {index}")
        return self._states_by_index[index]

    def initial_message(self, leader_letter: str) -> Bits:
        return self._encode(self._dfa.step(self._dfa.start, leader_letter))

    def relay(self, letter: str, incoming: Bits) -> Bits:
        """Two lookups; anything the table cannot answer keeps its error.

        A message of the wrong width, one naming no state, a foreign
        letter or a non-:class:`Bits` message takes the decode and
        :meth:`DFA.step` path, which raises the exact error.
        """
        try:
            if incoming._length == self._width:
                encoded = self._next[letter][incoming._value]
                if encoded is not None:
                    return encoded
        except (AttributeError, KeyError):
            pass
        return self._encode(self._dfa.step(self._decode(incoming), letter))

    def decide(self, leader_letter: str, final: Bits) -> bool:
        return self._decode(final) in self._dfa.accepting


class DFARecognizer(TransducerRingAlgorithm):
    """Theorem 1's ring algorithm for a regular language.

    Parameters
    ----------
    dfa:
        Any total DFA for the language; ``minimal=True`` (default) minimizes
        first so the per-message width — and hence the measured constant in
        E1 — is the best the construction offers.
    """

    def __init__(self, dfa: DFA, name: str = "thm1-dfa", minimal: bool = True) -> None:
        automaton = minimize(dfa) if minimal else dfa
        super().__init__(_DFATransducer(automaton), name=name)
        self.dfa = automaton

    @property
    def bits_per_message(self) -> int:
        """``ceil(log2 |Q|)``: the exact per-message cost."""
        return self.transducer.width  # type: ignore[attr-defined]

    def predicted_bits(self, n: int) -> int:
        """Exact predicted execution cost on a ring of size ``n``."""
        return self.bits_per_message * n
