"""The §7(3) hierarchy family ``L_g``.

For a growth function ``g`` with ``n log n <= g(n) <= n^2``, the paper
defines::

    L_g = { w | exists x, y, i > 0 :  w = x^i y,  |x| > |y|,
            and floor(g(|w|) / |w|) = |x| }

i.e. ``w`` consists of ``i`` repetitions of a block ``x`` of length
``p = floor(g(n)/n)`` followed by a shorter tail ``y``.  The paper's
algorithm "compares every segment of length |x| with the next segment",
which on the last (partial) segment compares the tail against the prefix
of ``x`` — so we adopt the full-periodicity reading: ``w`` is in ``L_g``
iff ``w[j] == w[j+p]`` for *every* ``0 <= j < n - p`` (equivalently,
``y`` is a prefix of ``x``).  This keeps the recognizer's messages free of
position counters (a fail bit plus the sliding window suffices), which is
what lets the measured curves sit cleanly on ``Theta(g(n))`` instead of
being swamped by bookkeeping; the ``Omega(g)`` lower-bound argument is
unchanged by the choice.

The paper proves ``L_g`` requires ``Theta(g(n))`` bits: the block
comparisons dominate (``n`` messages of ``p = g(n)/n`` bits each), plus an
``O(n log n)`` counting phase to learn ``n``, which is absorbed because
``g(n) = Omega(n log n)``.

:class:`GrowthFunction` packages a callable with a name and an evaluation
cache; :data:`STANDARD_GROWTHS` lists the four sweep points of experiment
E9 (``n log n``, ``n^1.5``, ``n log^2 n``, ``n^2``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import LanguageError
from repro.languages.base import Language

__all__ = ["GrowthFunction", "PeriodicLanguage", "block_length", "STANDARD_GROWTHS"]


@dataclass(frozen=True)
class GrowthFunction:
    """A named growth function ``g(n)`` used to parameterize ``L_g``.

    ``fn`` may return a float; consumers floor it.  ``latex`` is the label
    used in experiment tables.
    """

    name: str
    fn: Callable[[int], float]
    _cache: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, n: int) -> int:
        if n < 1:
            raise LanguageError("growth functions are defined for n >= 1")
        if n not in self._cache:
            self._cache[n] = int(math.floor(self.fn(n)))
        return self._cache[n]


def block_length(g: GrowthFunction, n: int) -> int:
    """``p = floor(g(n)/n)``, the block length of ``L_g`` at ring size ``n``."""
    return g(n) // n


STANDARD_GROWTHS: tuple[GrowthFunction, ...] = (
    GrowthFunction("n*log2(n)", lambda n: n * math.log2(max(n, 2))),
    GrowthFunction("n^1.5", lambda n: n**1.5),
    GrowthFunction("n*log2(n)^2", lambda n: n * math.log2(max(n, 2)) ** 2),
    GrowthFunction("n^2", lambda n: float(n * n)),
)
"""The E9 sweep: four growth laws spanning the ``n log n`` .. ``n^2`` range."""


class PeriodicLanguage(Language):
    """``L_g`` for a given growth function ``g`` (see module docstring)."""

    def __init__(self, g: GrowthFunction, alphabet: str = "ab") -> None:
        super().__init__(f"L_g[{g.name}]", alphabet)
        self._g = g

    @property
    def growth(self) -> GrowthFunction:
        """The growth function parameterizing this language."""
        return self._g

    def block_length(self, n: int) -> int:
        """``p = floor(g(n)/n)`` at word length ``n``."""
        return block_length(self._g, n)

    def contains(self, word: str) -> bool:
        n = len(word)
        if n == 0:
            return False
        p = self.block_length(n)
        if p < 1 or p > n:
            return False
        # Full p-periodicity: the word is x^i y with y a prefix of x.
        return all(word[j] == word[j + p] for j in range(n - p))

    def sample_member(self, length: int, rng: random.Random) -> str | None:
        if length == 0:
            return None
        p = self.block_length(length)
        if p < 1 or p > length:
            return None
        block = self.random_word(p, rng)
        repetitions = -(-length // p)
        return (block * repetitions)[:length]

    def sample_non_member(self, length: int, rng: random.Random) -> str | None:
        member = self.sample_member(length, rng)
        if member is None:
            # No member of this length: any word is a non-member.
            return self.random_word(length, rng) if length else None
        p = self.block_length(length)
        if length <= p:
            return None  # a single (possibly partial) block: all words match
        # Corrupt one letter past the first block so some periodicity
        # comparison w[j] == w[j+p] fails at j = position - p.
        position = p + rng.randrange(length - p)
        partner = position - p
        options = [ch for ch in self._alphabet if ch != member[partner]]
        word = list(member)
        word[position] = rng.choice(options)
        return "".join(word)
