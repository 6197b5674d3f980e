"""§7(5): the bits-vs-passes trade-off for regular languages.

Language family (over ``Sigma = {sigma_0 .. sigma_{2^k - 1}}``)::

    L = { w : sigma_{|w| mod (2^k - 1)} appears an even number of times }

* **Two passes, (2k+1) n bits** — pass 1 computes ``|w| mod (2^k - 1)``
  with ``k``-bit messages; pass 2 carries the resolved target index
  (``k`` bits) plus a single parity bit, ``(k+1)`` bits per message.
* **One pass, (k + 2^k - 1) n bits** — without a second pass the target is
  unknown until the message returns, so every message must carry *all*
  ``2^k - 1`` candidate parities concurrently alongside the ``k``-bit
  length counter.

Experiment E11 measures both costs exactly and checks the measured ratio
``(k + 2^k - 1) / (2k + 1)``: the one-pass algorithm is cheaper only for
``k <= 2`` and loses exponentially afterwards — the paper's point that
pass count buys bits.  The paper's closing remark (any ``c n``-bit
any-pass regular recognizer compiles to a ``2^c n``-bit one-pass one) is
exercised by compiling :class:`TwoPassTradeoffRecognizer` with
:func:`repro.core.multipass.compile_to_one_pass` (experiment E3).
"""

from __future__ import annotations

from repro.bits import BitReader, Bits, encode_fixed
from repro.core.multipass import MultipassAlgorithm, MultipassRingAlgorithm
from repro.core.regular_onepass import OnePassTransducer, TransducerRingAlgorithm
from repro.errors import ProtocolError
from repro.languages.regular import TradeoffLanguage

__all__ = [
    "TwoPassTradeoffRecognizer",
    "OnePassTradeoffRecognizer",
    "two_pass_bits",
    "one_pass_bits",
]


def two_pass_bits(k: int, n: int) -> int:
    """Paper's exact two-pass cost: ``(2k + 1) * n``."""
    return (2 * k + 1) * n


def one_pass_bits(k: int, n: int) -> int:
    """Paper's exact one-pass cost: ``(k + 2^k - 1) * n``."""
    return (k + (1 << k) - 1) * n


class _TwoPassTradeoff(MultipassAlgorithm):
    """The two-pass algorithm as a :class:`MultipassAlgorithm`.

    Wire formats: pass-1 messages are ``k`` bits (length count mod
    ``2^k - 1``); pass-2 messages are ``k + 1`` bits (target index then the
    running parity).  Followers distinguish passes by message length —
    keeping them stateless, which also feeds the Theorem 3 compiler the
    easiest possible input.
    """

    def __init__(self, language: TradeoffLanguage) -> None:
        super().__init__(language.alphabet, passes=2)
        self.name = f"tradeoff-2pass(k={language.k})"
        self.language = language
        self.k = language.k
        self.modulus = language.modulus
        # The followers' answers, indexed by the incoming packed int: the
        # next count for a pass-1 message, the pass-2 message with its
        # parity flipped.
        self._next_count = [
            encode_fixed((count + 1) % self.modulus, self.k)
            for count in range(1 << self.k)
        ]
        self._flipped = [
            encode_fixed(value ^ 1, self.k + 1) for value in range(1 << (self.k + 1))
        ]

    # -- helpers -----------------------------------------------------------

    def _target_letter(self, index: int) -> str:
        return self.alphabet[index]

    def leader_start(self, letter: str):
        # Pass 1: count the leader's own letter already.
        return None, encode_fixed(1 % self.modulus, self.k)

    def leader_pass_end(self, letter: str, memory, incoming: Bits):
        if len(incoming) == self.k:
            # End of pass 1: incoming is n mod (2^k - 1) = the target index.
            target = incoming.to_int()
            parity = 1 if letter == self._target_letter(target) else 0
            return None, incoming + Bits([parity]), None
        # End of pass 2: k bits target + 1 bit parity.
        reader = BitReader(incoming)
        reader.read_fixed(self.k)
        parity = reader.read_bit()
        reader.expect_exhausted()
        return None, None, parity == 0

    def follower_step(self, letter: str, memory, incoming: Bits):
        width = incoming._length
        if width == self.k:
            return None, self._next_count[incoming._value]
        if width == self.k + 1:
            # Target index in the high k bits, parity in the low bit.
            value = incoming._value
            if letter == self.alphabet[value >> 1]:
                return None, self._flipped[value]
            return None, incoming
        # Unknown shape (only reachable via the Theorem 3 enumerator, which
        # probes followers with arbitrary message-space elements): inert.
        return None, incoming


class TwoPassTradeoffRecognizer(MultipassRingAlgorithm):
    """Ring algorithm wrapper for the two-pass §7(5) recognizer."""

    def __init__(self, language: TradeoffLanguage) -> None:
        super().__init__(_TwoPassTradeoff(language))
        self.language = language

    def predicted_bits(self, n: int) -> int:
        """``(2k + 1) n`` exactly."""
        return two_pass_bits(self.language.k, n)


class _OnePassTradeoff(OnePassTransducer):
    """The one-pass algorithm as a :class:`OnePassTransducer`.

    The relay works on the message's packed integer: the count is the
    high ``k`` bits and parity ``i`` is bit ``modulus - 1 - i`` from the
    low end, so a step is one shift, one mask and one XOR (the same bits
    :meth:`decode` and :meth:`encode` would give).
    """

    def __init__(self, language: TradeoffLanguage) -> None:
        self.language = language
        self.k = language.k
        self.modulus = language.modulus
        self._width = self.k + self.modulus
        self._flip = {
            letter: 1 << (self.modulus - 1 - index) if index < self.modulus else 0
            for index, letter in enumerate(language.alphabet)
        }

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.language.alphabet

    def encode(self, count: int, parities: list[int]) -> Bits:
        """count (k bits) then one parity bit per candidate target."""
        if len(parities) != self.modulus:
            raise ProtocolError("parity vector has the wrong arity")
        return encode_fixed(count, self.k) + Bits(parities)

    def decode(self, message: Bits) -> tuple[int, list[int]]:
        """Inverse of :meth:`encode`."""
        reader = BitReader(message)
        count = reader.read_fixed(self.k)
        parities = [reader.read_bit() for _ in range(self.modulus)]
        reader.expect_exhausted()
        return count, parities

    def initial_message(self, leader_letter: str) -> Bits:
        modulus = self.modulus
        return encode_fixed(
            (1 % modulus) << modulus | self._flip[leader_letter], self._width
        )

    def relay(self, letter: str, incoming: Bits) -> Bits:
        width = self._width
        if incoming._length != width:
            self.decode(incoming)  # raises the codec's length error
        modulus = self.modulus
        value = incoming._value
        count = ((value >> modulus) + 1) % modulus
        parities = (value ^ self._flip[letter]) & ((1 << modulus) - 1)
        return Bits._make(count << modulus | parities, width)

    def decide(self, leader_letter: str, final: Bits) -> bool:
        count, parities = self.decode(final)
        return parities[count] == 0


class OnePassTradeoffRecognizer(TransducerRingAlgorithm):
    """The one-pass §7(5) recognizer: all candidate parities in flight.

    Message format: ``k`` bits of length count mod ``2^k - 1``, then one
    parity bit per candidate target ``sigma_0 .. sigma_{2^k - 2}`` —
    ``k + 2^k - 1`` bits per message, the paper's exact figure.  (Letters
    ``sigma_i`` with ``i >= 2^k - 1`` can never be the target, so their
    parities are not tracked.)
    """

    def __init__(self, language: TradeoffLanguage) -> None:
        super().__init__(
            _OnePassTradeoff(language), name=f"tradeoff-1pass(k={language.k})"
        )
        self.language = language
        self.k = language.k
        self.modulus = language.modulus

    def encode(self, count: int, parities: list[int]) -> Bits:
        """count (k bits) then one parity bit per candidate target."""
        return self.transducer.encode(count, parities)

    def decode(self, message: Bits) -> tuple[int, list[int]]:
        """Inverse of :meth:`encode`."""
        return self.transducer.decode(message)

    def predicted_bits(self, n: int) -> int:
        """``(k + 2^k - 1) n`` exactly."""
        return one_pass_bits(self.k, n)
