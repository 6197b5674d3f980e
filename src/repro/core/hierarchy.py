"""§7(3): the ``Theta(g(n))`` recognizer for the hierarchy family ``L_g``.

Two phases, exactly as the paper sketches:

1. **Count** — the leader computes ``n`` with the Elias-gamma counter
   (``Theta(n log n)`` bits; within ``Theta(g)`` since
   ``g(n) = Omega(n log n)``).
2. **Compare** — the leader derives the block length ``p = floor(g(n)/n)``
   and sends a sliding window of the last ``p`` letters around the ring;
   each processor whose window is already full checks its own letter
   against the letter ``p`` positions back (the front of the window).

The compare-pass wire format is deliberately lean — the experiments
classify its growth, and per-message position counters would bury the
``p * n`` signal under an ``n log n`` of bookkeeping:

* fail flag (1 bit), then a phase flag (1 bit): ``filling`` or ``full``;
* while ``filling``: gamma(slots still to fill) — only the first ``p``
  messages pay this, ``O(p log p)`` total;
* the window letters at ``ceil(log2 |Sigma|)`` bits each (length implied
  by the message size).

Compare-pass cost: ``n * (2 + p b) + O(p log p)`` bits, i.e.
``Theta(n p) = Theta(g(n))``; total with counting ``Theta(g(n))``.

Both passes are single-token, so the token's state at any ring position
is a pure function of the word prefix — :func:`replay_segment` exploits
this to reconstruct any slice of the trace independently (the
divisible-cell decomposition of E9's member measurement).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.bits import (
    BitReader,
    Bits,
    elias_gamma_length,
    encode_elias_gamma,
    encode_fixed,
    fixed_width_for,
)
from repro.errors import ProtocolError
from repro.languages.hierarchy import GrowthFunction, PeriodicLanguage
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm

__all__ = ["HierarchyRecognizer", "replay_segment"]

_PHASE_COUNT, _PHASE_COMPARE = 0, 1
_FILLING, _FULL = 0, 1


class _CompareCodec:
    """Shared encode/decode for the compare-pass messages."""

    def __init__(self, letter_width: int) -> None:
        self.letter_width = letter_width

    def encode(
        self, fail: int, to_fill: int, window: tuple[int, ...]
    ) -> Bits:
        """``to_fill`` = 0 means the window is full (slide mode)."""
        head = Bits([_PHASE_COMPARE, fail])
        if to_fill > 0:
            head = head + Bits([_FILLING]) + encode_elias_gamma(to_fill)
        else:
            head = head + Bits([_FULL])
        for code in window:
            head = head + encode_fixed(code, self.letter_width)
        return head

    def decode(self, reader: BitReader) -> tuple[int, int, list[int]]:
        fail = reader.read_bit()
        phase = reader.read_bit()
        to_fill = reader.read_elias_gamma() if phase == _FILLING else 0
        window = []
        while reader.remaining:
            window.append(reader.read_fixed(self.letter_width))
        return fail, to_fill, window

    def encoded_size(self, fail: int, to_fill: int, window_len: int) -> int:
        """``len(self.encode(fail, to_fill, window))`` without the window.

        The head is built with the same constructors :meth:`encode`
        uses; the window contributes exactly ``window_len *
        letter_width`` bits because :func:`repro.bits.encode_fixed` is
        fixed-width by contract (letter values never change a message's
        size).  :func:`replay_segment` sums these sizes for hops whose
        windows it never needs to materialize.
        """
        head = Bits([_PHASE_COMPARE, fail])
        if to_fill > 0:
            head = head + Bits([_FILLING]) + encode_elias_gamma(to_fill)
        else:
            head = head + Bits([_FULL])
        return len(head) + window_len * self.letter_width


class _HierarchyLeader(Processor):
    def __init__(self, letter: str, algorithm: "HierarchyRecognizer") -> None:
        super().__init__(letter, is_leader=True)
        self._algorithm = algorithm
        self.computed_n: int | None = None

    def on_start(self) -> Iterable[Send]:
        return [Send.cw(Bits([_PHASE_COUNT]) + encode_elias_gamma(1))]

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        alg = self._algorithm
        reader = BitReader(message)
        phase = reader.read_bit()
        if phase == _PHASE_COUNT:
            n = reader.read_elias_gamma()
            reader.expect_exhausted()
            self.computed_n = n
            p = alg.growth(n) // n
            if p < 1 or p > n:
                # No word of this length is in L_g.
                self.decide(False)
                return ()
            window = (alg.letter_code(self.letter),)
            return [Send.cw(alg.codec.encode(0, p - 1, window))]
        fail, _to_fill, _window = alg.codec.decode(reader)
        self.decide(fail == 0)
        return ()


class _HierarchyFollower(Processor):
    """Slides a full window on the message's packed integer.

    A full compare message is the head ``1, fail, _FULL`` then ``L``
    letters of ``b`` bits: the front letter is ``window >> (L-1)b`` and
    the slid window ``((window << b) | mine) & mask`` — one ``Bits`` of
    the same length, the bits :class:`_CompareCodec` would give.  A
    count message is the int ``v`` in ``2 * bitlen(v)`` bits (a 0 phase
    bit, then ``gamma(v)``), and the next count is ``v + 1`` the same
    way.  Filling messages, and any malformed one, take the codec path.
    """

    def __init__(self, letter: str, algorithm: "HierarchyRecognizer") -> None:
        super().__init__(letter, is_leader=False)
        self._algorithm = algorithm

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        length = message._length
        value = message._value
        if value and length == 2 * value.bit_length():
            # A count message, phase 0 then gamma(v), packs to the int v
            # in 2 * bitlen(v) bits; the next one carries v + 1.
            value += 1
            return [Send.cw(Bits._make(value, 2 * value.bit_length()))]
        alg = self._algorithm
        width = alg.letter_width
        window_bits = length - 3
        if (
            window_bits >= width
            and window_bits % width == 0
            and (value >> window_bits) | 0b010 == 0b111
        ):
            mine = alg.letter_code(self.letter)
            mask = (1 << window_bits) - 1
            window = value & mask
            fail = (value >> (window_bits + 1)) & 1
            if window >> (window_bits - width) != mine:
                fail = 1
            window = ((window << width) | mine) & mask
            head = _PHASE_COMPARE << 2 | fail << 1 | _FULL
            return [Send.cw(Bits._make(head << window_bits | window, length))]
        reader = BitReader(message)
        phase = reader.read_bit()
        if phase == _PHASE_COUNT:
            value = reader.read_elias_gamma()
            reader.expect_exhausted()
            return [Send.cw(Bits([_PHASE_COUNT]) + encode_elias_gamma(value + 1))]
        fail, to_fill, window = alg.codec.decode(reader)
        mine = alg.letter_code(self.letter)
        if to_fill == 0:
            # Full window: compare against the letter p positions back.
            if window[0] != mine:
                fail = 1
            window.pop(0)
            window.append(mine)
        else:
            window.append(mine)
            to_fill -= 1
        return [Send.cw(alg.codec.encode(fail, to_fill, tuple(window)))]


class HierarchyRecognizer(RingAlgorithm):
    """The §7(3) algorithm for ``L_g`` (see module docstring).

    Build from a :class:`PeriodicLanguage`; the recognizer and the language
    share the growth function ``g`` by construction.
    """

    def __init__(self, language: PeriodicLanguage) -> None:
        super().__init__(language.alphabet)
        self.language = language
        self.growth: GrowthFunction = language.growth
        self.letter_width = fixed_width_for(len(self.alphabet))
        self.codec = _CompareCodec(self.letter_width)
        self.name = f"hierarchy[{self.growth.name}]"

    def letter_code(self, letter: str) -> int:
        """Fixed-width code of a letter."""
        index = self.alphabet.index(letter)
        if index < 0:  # pragma: no cover - validate_word guards earlier
            raise ProtocolError(f"letter {letter!r} outside the alphabet")
        return index

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _HierarchyLeader(letter, self)
        return _HierarchyFollower(letter, self)


def replay_segment(
    language: PeriodicLanguage, word: str, start: int, stop: int
) -> dict:
    """Exact bit accounting for ring positions ``[start, stop)``.

    The recognizer's execution on ``word`` is a pair of single-token
    passes, and the token's state when position ``h`` emits is a pure
    function of the word prefix:

    * count pass — position ``h`` emits the phase bit plus
      ``gamma(h + 1)`` (the leader launches with ``gamma(1)``, every
      follower increments);
    * compare pass — position ``h`` emits ``to_fill = max(p-1-h, 0)``
      and the window ``word[max(0, h-p+1) .. h]``, with the fail flag
      set iff some comparison ``word[i] != word[i-p]`` with
      ``p <= i <= h`` already failed.

    Replaying a slice of positions therefore reconstructs that slice of
    the trace independently of every other slice — the divisible-cell
    decomposition of E9's member run (PERFORMANCE.md layer 10).  Sizes
    come from the live protocol's own codec
    (:meth:`_CompareCodec.encoded_size`,
    :func:`repro.bits.elias_gamma_length`), summed in closed form: a
    size depends only on the phase, the bit length of ``to_fill`` or of
    the count, and the window length, so a segment costs O(log n) codec
    calls and one slice comparison.  Summing segments over any
    partition of ``[0, n)`` equals the simulated
    :class:`~repro.ring.trace.TraceStats` pass totals bit for bit (the
    ``fail`` flag returned is the *segment-local* disjunction — OR the
    segments to get the run's decision; the flag never changes a
    message's size, so the bit totals are exact either way).

    When ``p`` is invalid (no word of this length is in ``L_g``) the
    leader decides after the count pass and no compare message exists —
    mirrored here by ``p_valid`` and zero compare bits.
    """
    n = len(word)
    if not 0 <= start <= stop <= n:
        raise ProtocolError(
            f"segment [{start}, {stop}) outside a ring of {n} positions"
        )
    recognizer = HierarchyRecognizer(language)
    p = recognizer.growth(n) // n
    p_valid = 1 <= p <= n
    # Position h's count message is the phase bit then gamma(h + 1).
    count_bits = _sum_by_bit_length(
        start + 1, stop, lambda v: 1 + elias_gamma_length(v)
    )
    compare_bits = 0
    fail = 0
    if p_valid:
        codec = recognizer.codec
        # Positions h < p - 1 are filling: to_fill = p - 1 - h, h + 1
        # letters.  The head's size depends on bitlen(to_fill) only, and
        # the letters sum to (h + 1) * letter_width over the run of h.
        fill_stop = min(stop, p - 1)
        if start < fill_stop:
            compare_bits += _sum_by_bit_length(
                p - fill_stop, p - 1 - start, lambda t: codec.encoded_size(0, t, 0)
            )
            compare_bits += recognizer.letter_width * (
                (fill_stop * (fill_stop + 1) - start * (start + 1)) // 2
            )
        # Every later position sends a full window of p letters.
        full = stop - max(start, p - 1)
        if full > 0:
            compare_bits += full * codec.encoded_size(0, 0, p)
        lo = max(start, p)
        fail = int(lo < stop and word[lo:stop] != word[lo - p : stop - p])
    return {
        "count_bits": count_bits,
        "compare_bits": compare_bits,
        "fail": fail,
        "p_valid": p_valid,
    }


def _sum_by_bit_length(first: int, last: int, size: Callable[[int], int]) -> int:
    """``sum(size(v) for v in range(first, last + 1))``, ``first >= 1``.

    ``size(v)`` must depend on ``v.bit_length()`` alone; it is called
    once per bit length in the range.
    """
    total = 0
    while first <= last:
        top = min(last, (1 << first.bit_length()) - 1)
        total += (top - first + 1) * size(first)
        first = top + 1
    return total
