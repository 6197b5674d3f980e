"""§7(4): the landscape when ``n`` is known to every processor.

The paper notes that with ``n`` known (and, for the hierarchy argument,
each processor knowing which position it holds) the ``O(n log n)`` counting
phase disappears: the hierarchy extends down to ``Theta(n)``, the gap
between ``O(n)`` and ``Omega(n log n)`` closes, and there are non-regular
languages recognizable in ``O(n)`` bits.

Two constructions:

* :class:`KnownNHierarchyRecognizer` — ``L_g`` with ``n`` (and positions)
  known: one pass, message = fail bit + sliding window, ``1 + p*b`` bits
  per message, total ``Theta(n * p) = Theta(g(n))`` all the way down to
  ``Theta(n)`` at ``p = 1``.
* :class:`KnownNLengthRecognizer` — any length-determined language
  ``{w : P(|w|)}``: the leader evaluates ``P(n)`` locally and spends one
  1-bit confirmation pass so that every processor participates (the model
  requires ``n`` messages).  With ``P`` = primality this is a *non-regular*
  language at exactly ``n`` bits.

Both override :meth:`RingAlgorithm.create_processor_positioned` — the
positional knowledge is precisely what §7(4) grants.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.bits import BitReader, Bits, encode_fixed, fixed_width_for
from repro.errors import ProtocolError
from repro.languages.hierarchy import PeriodicLanguage
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm

__all__ = [
    "KnownNHierarchyRecognizer",
    "KnownNLengthRecognizer",
    "replay_segment",
]


class _KnownNHierarchyLeader(Processor):
    def __init__(
        self, letter: str, algorithm: "KnownNHierarchyRecognizer", size: int
    ) -> None:
        super().__init__(letter, is_leader=True)
        self._algorithm = algorithm
        self._size = size

    def on_start(self) -> Iterable[Send]:
        alg = self._algorithm
        p = alg.block_length(self._size)
        if p < 1 or p > self._size:
            self.decide(False)
            return ()
        window = (alg.letter_code(self.letter),)
        return [Send.cw(alg.encode(0, window))]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        fail, _window = self._algorithm.decode(message)
        self.decide(fail == 0)
        return ()


class _KnownNHierarchyFollower(Processor):
    """Slides a full window on the message's packed integer.

    A full message is the fail bit then ``p`` letters of ``b`` bits: the
    front letter is ``window >> (p-1)b`` and the slid window
    ``((window << b) | mine) & mask`` — one ``Bits`` of the same length,
    the bits :meth:`KnownNHierarchyRecognizer.encode` would give.  A
    filling window, and any malformed message, take the codec path.
    """

    def __init__(
        self,
        letter: str,
        algorithm: "KnownNHierarchyRecognizer",
        index: int,
        size: int,
    ) -> None:
        super().__init__(letter, is_leader=False)
        self._algorithm = algorithm
        self._index = index
        self._size = size

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        alg = self._algorithm
        p = alg.block_length(self._size)
        width = alg.letter_width
        length = message._length
        window_bits = length - 1
        if p >= 1 and window_bits == p * width:
            value = message._value
            mine = alg.letter_code(self.letter)
            mask = (1 << window_bits) - 1
            window = value & mask
            fail = value >> window_bits
            if window >> (window_bits - width) != mine:
                fail = 1
            window = ((window << width) | mine) & mask
            return [Send.cw(Bits._make(fail << window_bits | window, length))]
        fail, window = alg.decode(message)
        mine = alg.letter_code(self.letter)
        # Full periodicity: every processor from position p on compares its
        # letter against the one p positions back (the window front).  The
        # index is known in this §7(4) regime but only len(window) == p is
        # actually needed to detect it.
        if len(window) == p and window[0] != mine:
            fail = 1
        window.append(mine)
        if len(window) > p:
            window.pop(0)
        return [Send.cw(alg.encode(fail, tuple(window)))]


class KnownNHierarchyRecognizer(RingAlgorithm):
    """``L_g`` with ``n`` and positions known: one pass, ``Theta(g(n))`` bits.

    The degenerate decision (no member of this length exists) is made by
    the leader with zero messages when ``p < 1`` — in that case the run
    consists of the decision alone, mirroring the paper's remark that
    trivial cases need no communication once ``n`` is known.
    """

    def __init__(self, language: PeriodicLanguage) -> None:
        super().__init__(language.alphabet)
        self.language = language
        self.letter_width = fixed_width_for(len(self.alphabet))
        self.name = f"known-n-hierarchy[{language.growth.name}]"

    def block_length(self, n: int) -> int:
        """``p = floor(g(n)/n)``."""
        return self.language.block_length(n)

    def letter_code(self, letter: str) -> int:
        """Fixed-width code of a letter."""
        return self.alphabet.index(letter)

    def encode(self, fail: int, window: tuple[int, ...]) -> Bits:
        """fail bit + window letters (length implied by message size)."""
        message = Bits([fail])
        for code in window:
            message = message + encode_fixed(code, self.letter_width)
        return message

    def decode(self, message: Bits) -> tuple[int, list[int]]:
        """Inverse of :meth:`encode`."""
        reader = BitReader(message)
        fail = reader.read_bit()
        window = []
        while reader.remaining:
            window.append(reader.read_fixed(self.letter_width))
        return fail, window

    def encoded_size(self, fail: int, window_len: int) -> int:
        """``len(self.encode(fail, window))`` without the window.

        One fail bit plus ``window_len`` fixed-width letters — letter
        values never change a message's size, which is what lets
        :func:`replay_segment` account hops without building windows.
        """
        return len(Bits([fail])) + window_len * self.letter_width

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        raise ProtocolError(
            "KnownNHierarchyRecognizer needs positional knowledge; "
            "run it through a simulator (which calls the positioned factory)"
        )

    def create_processor_positioned(
        self, letter: str, is_leader: bool, index: int, size: int
    ) -> Processor:
        if is_leader:
            return _KnownNHierarchyLeader(letter, self, size)
        return _KnownNHierarchyFollower(letter, self, index, size)


def replay_segment(
    language: PeriodicLanguage, word: str, start: int, stop: int
) -> dict:
    """Exact bit accounting for ring positions ``[start, stop)``.

    The known-``n`` recognizer is one single-token pass whose state at
    position ``h`` is a pure function of the word prefix: the emitted
    window is ``word[max(0, h-p+1) .. h]`` (length ``min(h+1, p)``) and
    the fail flag records any comparison ``word[i] != word[i-p]`` with
    ``p <= i <= h``.  Replaying a slice of positions reconstructs that
    slice of the trace independently — the divisible-cell decomposition
    of E10's member run, mirroring
    :func:`repro.core.hierarchy.replay_segment` (see there for the
    segment-sum-equals-simulation contract and the meaning of the
    segment-local ``fail``).  Sizes are summed in closed form from
    :meth:`KnownNHierarchyRecognizer.encoded_size`, and ``fail`` is one
    slice comparison.

    When ``p`` is invalid the leader decides with *zero* messages, so
    every segment accounts zero bits.
    """
    n = len(word)
    if not 0 <= start <= stop <= n:
        raise ProtocolError(
            f"segment [{start}, {stop}) outside a ring of {n} positions"
        )
    recognizer = KnownNHierarchyRecognizer(language)
    p = recognizer.block_length(n)
    p_valid = 1 <= p <= n
    bits = 0
    fail = 0
    if p_valid:
        # Positions h < p - 1 send h + 1 letters, every later one p.
        fill_stop = min(stop, p - 1)
        if start < fill_stop:
            bits += (fill_stop - start) * recognizer.encoded_size(0, 0)
            bits += recognizer.letter_width * (
                (fill_stop * (fill_stop + 1) - start * (start + 1)) // 2
            )
        full = stop - max(start, p - 1)
        if full > 0:
            bits += full * recognizer.encoded_size(0, p)
        lo = max(start, p)
        fail = int(lo < stop and word[lo:stop] != word[lo - p : stop - p])
    return {"bits": bits, "fail": fail, "p_valid": p_valid}


class _KnownNLengthLeader(Processor):
    def __init__(
        self, letter: str, predicate: Callable[[int], bool], size: int
    ) -> None:
        super().__init__(letter, is_leader=True)
        self._predicate = predicate
        self._size = size

    def on_start(self) -> Iterable[Send]:
        # The decision is local; the 1-bit pass makes everyone participate.
        return [Send.cw(Bits("1"))]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self.decide(self._predicate(self._size))
        return ()


class _ForwardOneBit(Processor):
    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        return [Send.cw(Bits("1"))]


class KnownNLengthRecognizer(RingAlgorithm):
    """``{w : P(|w|)}`` with ``n`` known: exactly ``n`` bits.

    With ``P`` = primality the language is non-regular yet costs ``O(n)``
    — the §7(4) witness that the ``Omega(n log n)`` barrier is a
    consequence of *not* knowing ``n``.
    """

    def __init__(
        self,
        predicate: Callable[[int], bool],
        alphabet: Sequence[str] = "ab",
        name: str = "known-n-length",
    ) -> None:
        super().__init__(alphabet)
        self._predicate = predicate
        self.name = name

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        raise ProtocolError(
            "KnownNLengthRecognizer needs to know n; run it through a "
            "simulator (which calls the positioned factory)"
        )

    def create_processor_positioned(
        self, letter: str, is_leader: bool, index: int, size: int
    ) -> Processor:
        if is_leader:
            return _KnownNLengthLeader(letter, self._predicate, size)
        return _ForwardOneBit(letter, is_leader=False)
