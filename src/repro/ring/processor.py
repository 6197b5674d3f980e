"""The message-driven processor API.

The paper's model (§2): all processors except the leader execute the same
algorithm; the leader initiates; the algorithm terminates when the leader
accepts or rejects the pattern.  Correspondingly:

* :class:`Processor` — one node's local behavior.  Subclasses implement
  :meth:`Processor.on_receive`; the leader additionally implements
  :meth:`Processor.on_start` and eventually calls :meth:`Processor.decide`.
* :class:`RingAlgorithm` — a factory producing a processor per node given
  its input letter and whether it is the leader.  The *same* follower
  construction must be used for every non-leader node, which the simulators
  cannot check directly but the factory signature encourages and the
  information-state machinery (Theorem 4) exploits.
* :class:`RelayProgram` — the step form of a single-token algorithm,
  which an algorithm may declare through
  :meth:`RingAlgorithm.relay_program` so either ring can walk the word
  instead of building processors.

Processors communicate *only* by returning :class:`~repro.ring.messages.Send`
requests from their handlers; they have no access to ``n`` or to the global
ring state, faithfully to the model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.bits import Bits
from repro.errors import ProtocolError
from repro.ring.messages import Direction, Send

__all__ = ["Processor", "LeaderMixin", "RingAlgorithm", "RelayProgram"]


class Processor(ABC):
    """Local behavior of one ring node.

    Parameters
    ----------
    letter:
        The node's input letter (one symbol of the pattern).
    is_leader:
        Whether this node is the distinguished leader.  Only the leader may
        call :meth:`decide`.
    """

    def __init__(self, letter: str, is_leader: bool) -> None:
        self.letter = letter
        self.is_leader = is_leader
        self._decision: bool | None = None

    # ------------------------------------------------------------------
    # Handlers implemented by algorithms
    # ------------------------------------------------------------------

    def on_start(self) -> Iterable[Send]:
        """Called once on the leader when the algorithm is initiated.

        Followers never receive this call.  The default (no sends) suits
        followers; leader subclasses override it.
        """
        return ()

    @abstractmethod
    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        """Handle a delivered message.

        ``arrived_from`` names the port the message came in on: a message
        traveling CW arrives from the receiver's CCW port.  Return the sends
        this delivery triggers (possibly none).
        """

    # ------------------------------------------------------------------
    # Decision (leader only)
    # ------------------------------------------------------------------

    def decide(self, accept: bool) -> None:
        """Record the leader's accept/reject decision.

        Raises :class:`ProtocolError` if called on a follower (the model
        gives the decision to the leader alone) or called twice with
        conflicting values.
        """
        if not self.is_leader:
            raise ProtocolError("only the leader may decide")
        if self._decision is not None and self._decision != accept:
            raise ProtocolError(
                f"conflicting decisions: {self._decision} then {accept}"
            )
        self._decision = accept

    @property
    def decision(self) -> bool | None:
        """The leader's decision, or None while undecided."""
        return self._decision


class LeaderMixin:
    """Marker mixin for leader-specific processor classes (documentation aid)."""


class RelayProgram(NamedTuple):
    """A single-token algorithm in step form.

    Each pass starts with the leader emitting one message, which every
    follower ``p_1 .. p_{n-1}`` in turn maps to one outgoing message,
    always CW; the leader then decides or starts the next pass.  Memory
    is per node and persists across passes.  With one message in flight
    the execution is the same on both rings and under every scheduler,
    so either ring may walk it.

    * ``start(letter) -> (memory, message)`` — the leader's memory and
      first message;
    * ``step(letter, memory, incoming) -> (memory, outgoing)`` — one
      follower delivery;
    * ``pass_end(letter, memory, incoming) -> (memory, message,
      decision)`` — the delivery closing a pass: a decision that is not
      None ends the run, otherwise ``message`` starts the next pass, and
      neither ends the run undecided;
    * ``initial_memory() -> memory`` — a fresh follower's memory, or
      None when every follower starts with None (which saves n calls).
    """

    start: Callable[[str], "tuple[Any, Bits]"]
    step: Callable[[str, Any, Bits], "tuple[Any, Bits]"]
    pass_end: Callable[[str, Any, Bits], "tuple[Any, Bits | None, Any]"]
    initial_memory: "Callable[[], Any] | None" = None


class RingAlgorithm(ABC):
    """Factory for the processors of one distributed algorithm.

    ``name`` appears in experiment tables.  ``alphabet`` is the input
    alphabet the algorithm expects; simulators validate ring labels
    against it.
    """

    name: str = "unnamed-algorithm"

    def __init__(self, alphabet: Sequence[str]) -> None:
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ProtocolError("algorithm alphabet must be non-empty")

    @abstractmethod
    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        """Build the processor for a node holding ``letter``."""

    def create_processor_positioned(
        self, letter: str, is_leader: bool, index: int, size: int
    ) -> Processor:
        """Positioned factory hook used by the simulators.

        The base model gives processors *no* positional knowledge, so the
        default ignores ``index``/``size`` and delegates to
        :meth:`create_processor`.  Exactly two constructions in the paper
        are granted more and override this: the §7(4) known-``n`` regime
        (every processor knows ``n`` and its position) and Theorem 7's
        stage-1 line embedding (the end processors know they are ends,
        paid for by the paper's uncounted setup message).
        """
        return self.create_processor(letter, is_leader)

    def relay_program(self) -> RelayProgram | None:
        """The algorithm's step form, if it is a single-token relay.

        An algorithm whose processors are a single-token CW relay may
        return a :class:`RelayProgram` describing exactly the same
        execution; either ring then walks the word instead of building
        processors for a ``trace="metrics"`` run, under every scheduler
        (a scheduler that is not ``round_batchable`` is still asked once
        per delivery).  The default, None, keeps every run on the
        processors.
        """
        return None

    def validate_word(self, word: str) -> None:
        """Raise :class:`ProtocolError` if ``word`` uses foreign letters.

        The first foreign letter, in word order, is the one named.
        """
        if set(word).issubset(self.alphabet):
            return
        for letter in word:
            if letter not in self.alphabet:
                raise ProtocolError(
                    f"letter {letter!r} not in algorithm alphabet "
                    f"{self.alphabet!r}"
                )
