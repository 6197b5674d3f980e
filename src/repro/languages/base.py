"""The :class:`Language` abstraction.

A language couples:

* an alphabet (tuple of single-character symbols),
* a membership predicate ``contains(word)``,
* exact-length samplers ``sample_member(n)`` / ``sample_non_member(n)``.

Exact-length sampling is the interface the ring experiments need: a ring of
``n`` processors carries exactly one word of length ``n``, and the sweeps
in E1–E11 want both a member and a non-member at every ring size (when they
exist).  Subclasses override the samplers with constructive versions where
rejection sampling would be hopeless (e.g. ``a^k b^k`` at large ``n``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator

from repro.errors import LanguageError

__all__ = ["Language", "FunctionLanguage"]

_DEFAULT_REJECTION_TRIES = 2000

# ``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``, and CPython's
# stock ``_randbelow`` draws ``getrandbits(len(seq).bit_length())`` until
# the draw is below ``len(seq)``.  Samplers that draw once per letter
# inline that loop, which makes the same ``getrandbits`` calls, so the
# words and the generator's end state are those ``rng.choice`` gives.
_STOCK_RANDBELOW = getattr(random.Random, "_randbelow_with_getrandbits", None)


def _draws_by_getrandbits(rng: random.Random) -> bool:
    """True when ``rng.choice`` is the stock getrandbits rejection loop.

    A generator class that replaces ``choice`` or ``_randbelow`` (one
    that only overrides ``random()``, say) answers False, and samplers
    keep calling ``rng.choice`` for it.
    """
    cls = type(rng)
    return (
        _STOCK_RANDBELOW is not None
        and getattr(cls, "_randbelow", None) is _STOCK_RANDBELOW
        and getattr(cls, "choice", None) is random.Random.choice
    )


class Language(ABC):
    """Abstract language over a finite alphabet."""

    def __init__(self, name: str, alphabet: Iterable[str]) -> None:
        self._name = name
        self._alphabet = tuple(alphabet)
        if not self._alphabet:
            raise LanguageError("alphabet must be non-empty")
        for symbol in self._alphabet:
            if len(symbol) != 1:
                raise LanguageError(f"alphabet symbols must be single chars: {symbol!r}")
        if len(set(self._alphabet)) != len(self._alphabet):
            raise LanguageError("alphabet contains duplicates")

    @property
    def name(self) -> str:
        """Human-readable language name (used in experiment tables)."""
        return self._name

    @property
    def alphabet(self) -> tuple[str, ...]:
        """The language's alphabet as an ordered tuple of characters."""
        return self._alphabet

    @abstractmethod
    def contains(self, word: str) -> bool:
        """Membership predicate."""

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def random_word(self, length: int, rng: random.Random) -> str:
        """A uniformly random word of the given length over the alphabet.

        Letter ``i`` is ``rng.choice(alphabet)``'s ``i``-th draw, made
        inline (see :func:`_draws_by_getrandbits`).
        """
        alphabet = self._alphabet
        if not _draws_by_getrandbits(rng):
            return "".join(rng.choice(alphabet) for _ in range(length))
        getrandbits = rng.getrandbits
        count = len(alphabet)
        width = count.bit_length()
        letters = []
        for _ in range(length):
            r = getrandbits(width)
            while r >= count:
                r = getrandbits(width)
            letters.append(alphabet[r])
        return "".join(letters)

    def sample_member(self, length: int, rng: random.Random) -> str | None:
        """A member of exactly ``length`` letters, or None if none found.

        The default is bounded rejection sampling; subclasses with sparse
        languages override this constructively.
        """
        for _ in range(_DEFAULT_REJECTION_TRIES):
            word = self.random_word(length, rng)
            if self.contains(word):
                return word
        return None

    def sample_non_member(self, length: int, rng: random.Random) -> str | None:
        """A non-member of exactly ``length`` letters, or None if none found."""
        for _ in range(_DEFAULT_REJECTION_TRIES):
            word = self.random_word(length, rng)
            if not self.contains(word):
                return word
        # Dense languages: perturb a member one letter at a time.
        member = self.sample_member(length, rng)
        if member is None:
            return None
        for index in rng.sample(range(length), length):
            for symbol in self._alphabet:
                if symbol == member[index]:
                    continue
                candidate = member[:index] + symbol + member[index + 1 :]
                if not self.contains(candidate):
                    return candidate
        return None

    def words_of_length(self, length: int) -> Iterator[str]:
        """Exhaustively enumerate all words of a given length (small use only)."""
        if length == 0:
            yield ""
            return
        for prefix in self.words_of_length(length - 1):
            for symbol in self._alphabet:
                yield prefix + symbol

    def members_of_length(self, length: int) -> Iterator[str]:
        """Enumerate members of a given length (exponential; small use only)."""
        return (word for word in self.words_of_length(length) if self.contains(word))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name!r} over {''.join(self._alphabet)!r}>"


class FunctionLanguage(Language):
    """A language defined directly by a membership function.

    Handy for one-off languages in tests and examples::

        L = FunctionLanguage("equal-ab", "ab",
                             lambda w: w.count("a") == w.count("b"))
    """

    def __init__(
        self,
        name: str,
        alphabet: Iterable[str],
        predicate: Callable[[str], bool],
    ) -> None:
        super().__init__(name, alphabet)
        self._predicate = predicate

    def contains(self, word: str) -> bool:
        return self._predicate(word)
