"""Regular languages used by the linear-bit experiments (E1, E3, E11).

:class:`RegularLanguage` wraps a DFA; factory helpers build the specific
families the experiments sweep over, including the §7(5) trade-off family
``L = {w : sigma_{|w| mod (2^k - 1)} appears an even number of times}``
whose pass/bit trade-off Theorem note 5 analyzes.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.automata.dfa import DFA
from repro.automata.minimize import minimize
from repro.automata.regex import compile_regex
from repro.errors import LanguageError
from repro.languages.base import Language, _draws_by_getrandbits

__all__ = [
    "RegularLanguage",
    "regex_language",
    "parity_language",
    "mod_count_language",
    "substring_language",
    "length_mod_language",
    "TradeoffLanguage",
    "tradeoff_language",
    "TRADEOFF_SYMBOLS",
]


class RegularLanguage(Language):
    """A language given by a DFA; membership runs the automaton."""

    def __init__(self, name: str, dfa: DFA, minimal: bool = True) -> None:
        super().__init__(name, dfa.alphabet)
        self._dfa = minimize(dfa) if minimal else dfa
        self._chains: dict[frozenset, _ViableChain] = {}

    @property
    def dfa(self) -> DFA:
        """The (minimal, unless requested otherwise) recognizing DFA."""
        return self._dfa

    def contains(self, word: str) -> bool:
        return self._dfa.accepts(word)

    def sample_member(self, length: int, rng: random.Random) -> str | None:
        """Constructive sampling via a random walk through co-reachable states.

        Walks the DFA choosing uniformly among the symbols whose successor
        can still reach acceptance in exactly the remaining number of
        steps; returns None iff no member of this length exists.  The
        viable sets form an eventually periodic sequence (see
        :class:`_ViableChain`), so the walk takes O(n) time but keeps only
        the pre-period and one period of sets (a handful for the
        experiments' languages, ``2^|Q|`` at the very worst, and never
        more than ``length + 1``) — not one set per letter.
        """
        return self._sample_walk(length, rng, frozenset(self._dfa.accepting))

    def sample_non_member(self, length: int, rng: random.Random) -> str | None:
        """Constructive non-member sampling: the same walk toward the
        complement's accepting states.

        The base class falls back to rejection sampling, which degenerates
        for dense languages (a random long word almost surely *contains* a
        given substring, say) — at n = 10^4 the long-preset sweeps would
        spend their whole budget rejecting.  The walk is O(n) time and
        keeps only the periodic viable sets, as in :meth:`sample_member`;
        returns None iff every length-n word is a member.
        """
        targets = frozenset(self._dfa.states) - frozenset(self._dfa.accepting)
        return self._sample_walk(length, rng, targets)

    def _sample_walk(
        self, length: int, rng: random.Random, targets: frozenset
    ) -> str | None:
        chain = self._chains.get(targets)
        if chain is None:
            chain = self._chains[targets] = _ViableChain(
                self._dfa, self._alphabet, targets
            )
        state = self._dfa.start
        if state not in chain.sets[chain.index(length)]:
            return None
        # chain.index(length) extended the chain to cover every step below.
        mu, lam, known = chain.mu, chain.lam, len(chain.sets)
        moves = chain.moves
        letters: list[str] = []
        getrandbits = rng.getrandbits if _draws_by_getrandbits(rng) else None
        for remaining in range(length - 1, -1, -1):
            index = remaining if remaining < known else mu + (remaining - mu) % lam
            entry = moves.get((state, index))
            if entry is None:
                entry = chain.options(state, index)
            options, count, width = entry
            if getrandbits is None:
                symbol, state = rng.choice(options)
            else:
                # rng.choice(options), inlined: the same getrandbits calls.
                r = getrandbits(width)
                while r >= count:
                    r = getrandbits(width)
                symbol, state = options[r]
            letters.append(symbol)
        return "".join(letters)


class _ViableChain:
    """The viable sets of a DFA toward ``targets``, one period deep.

    ``W(j)`` is the set of states from which some state of ``targets`` is
    reachable in exactly ``j`` steps: ``W(0) = targets`` and ``W(j + 1)``
    is the predecessor set of ``W(j)``.  Each set depends only on the one
    before it, so the sequence is eventually periodic: once ``W(mu +
    lam) == W(mu)`` it repeats with period ``lam``.  :attr:`sets` holds
    ``W(0) .. W(mu + lam - 1)``; it is grown only as far as a walk asks,
    so a short word never computes past its own length.
    """

    __slots__ = ("_dfa", "_alphabet", "_seen", "sets", "mu", "lam", "moves")

    def __init__(self, dfa: DFA, alphabet: tuple[str, ...], targets: frozenset) -> None:
        self._dfa = dfa
        self._alphabet = alphabet
        self._seen = {targets: 0}
        self.sets: list[frozenset] = [targets]
        self.mu = 0
        self.lam = 0  # 0 until the first repeat is found
        # (state, set index) -> ([(symbol, successor)] in alphabet order,
        # its length, and the length's bit length: rng.choice's draw width).
        self.moves: dict[tuple, tuple[list, int, int]] = {}

    def index(self, steps: int) -> int:
        """Index into :attr:`sets` of ``W(steps)``, growing the chain."""
        sets = self.sets
        transitions, alphabet = self._dfa.transitions, self._alphabet
        while not self.lam and len(sets) <= steps:
            after = sets[-1]
            before = frozenset(
                state
                for state in self._dfa.states
                if any(transitions[(state, symbol)] in after for symbol in alphabet)
            )
            first = self._seen.get(before)
            if first is not None:
                self.mu, self.lam = first, len(sets) - first
            else:
                self._seen[before] = len(sets)
                sets.append(before)
        if steps < len(sets):
            return steps
        return self.mu + (steps - self.mu) % self.lam

    def options(self, state, index: int) -> tuple[list, int, int]:
        """The moves from ``state`` that land in ``sets[index]``.

        Returns ``(moves, len(moves), len(moves).bit_length())``.
        """
        transitions, viable = self._dfa.transitions, self.sets[index]
        moves = [
            (symbol, transitions[(state, symbol)])
            for symbol in self._alphabet
            if transitions[(state, symbol)] in viable
        ]
        count = len(moves)
        entry = self.moves[(state, index)] = (moves, count, count.bit_length())
        return entry


def regex_language(name: str, pattern: str, alphabet: Iterable[str]) -> RegularLanguage:
    """Regular language from a regex pattern (see :mod:`repro.automata.regex`)."""
    return RegularLanguage(name, compile_regex(pattern, alphabet))


def parity_language(letter: str = "a", alphabet: Iterable[str] = "ab") -> RegularLanguage:
    """Words with an even number of ``letter`` occurrences."""
    return mod_count_language(letter, 2, 0, alphabet)


def mod_count_language(
    letter: str, modulus: int, residue: int, alphabet: Iterable[str] = "ab"
) -> RegularLanguage:
    """Words where ``#letter ≡ residue (mod modulus)``."""
    alpha = tuple(alphabet)
    if letter not in alpha:
        raise LanguageError(f"{letter!r} not in alphabet {alpha!r}")
    if modulus < 1 or not 0 <= residue < modulus:
        raise LanguageError("need modulus >= 1 and 0 <= residue < modulus")
    states = frozenset(range(modulus))
    transitions = {
        (state, symbol): (state + 1) % modulus if symbol == letter else state
        for state in range(modulus)
        for symbol in alpha
    }
    dfa = DFA(states, alpha, transitions, 0, frozenset({residue}))
    return RegularLanguage(f"count({letter})%{modulus}=={residue}", dfa)


def substring_language(pattern: str, alphabet: Iterable[str] = "ab") -> RegularLanguage:
    """Words containing ``pattern`` as a contiguous substring (KMP automaton)."""
    alpha = tuple(alphabet)
    if not pattern:
        raise LanguageError("pattern must be non-empty")
    for symbol in pattern:
        if symbol not in alpha:
            raise LanguageError(f"pattern symbol {symbol!r} not in alphabet")
    # KMP failure function.
    failure = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[i] != pattern[k]:
            k = failure[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        failure[i] = k
    size = len(pattern)
    transitions: dict[tuple[int, str], int] = {}
    for state in range(size + 1):
        for symbol in alpha:
            if state == size:
                transitions[(state, symbol)] = size  # absorbing accept
                continue
            k = state
            while k and pattern[k] != symbol:
                k = failure[k - 1]
            transitions[(state, symbol)] = k + 1 if pattern[k] == symbol else 0
    dfa = DFA(
        frozenset(range(size + 1)), alpha, transitions, 0, frozenset({size})
    )
    return RegularLanguage(f"contains({pattern})", dfa)


def length_mod_language(
    modulus: int, residue: int, alphabet: Iterable[str] = "ab"
) -> RegularLanguage:
    """Words whose length is ``residue`` modulo ``modulus``."""
    alpha = tuple(alphabet)
    if modulus < 1 or not 0 <= residue < modulus:
        raise LanguageError("need modulus >= 1 and 0 <= residue < modulus")
    transitions = {
        (state, symbol): (state + 1) % modulus
        for state in range(modulus)
        for symbol in alpha
    }
    dfa = DFA(frozenset(range(modulus)), alpha, transitions, 0, frozenset({residue}))
    return RegularLanguage(f"len%{modulus}=={residue}", dfa)


# ----------------------------------------------------------------------
# The §7(5) pass/bit trade-off family
# ----------------------------------------------------------------------

TRADEOFF_SYMBOLS = "0123456789abcdefghijklmnopqrstuv"
"""Symbol pool for the trade-off family: ``sigma_i`` is ``TRADEOFF_SYMBOLS[i]``."""


class TradeoffLanguage(Language):
    """The paper's §7(5) family over ``Sigma = {sigma_0 .. sigma_{2^k-1}}``.

    ``w`` is a member iff ``sigma_{|w| mod (2^k - 1)}`` appears an even
    number of times in ``w``.  Regular (a finite product of a length-mod
    counter and per-symbol parities), but a one-pass recognizer must track
    all ``2^k - 1`` candidate parities concurrently, which is the source of
    the ``(k + 2^k - 1)n`` vs ``(2k + 1)n`` pass/bit trade-off.
    """

    def __init__(self, k: int) -> None:
        if not 1 <= k <= 5:
            raise LanguageError("tradeoff family supports 1 <= k <= 5")
        self.k = k
        self.modulus = (1 << k) - 1 if k > 1 else 1
        super().__init__(f"tradeoff(k={k})", TRADEOFF_SYMBOLS[: 1 << k])

    def contains(self, word: str) -> bool:
        index = len(word) % self.modulus
        target = self._alphabet[index]
        return word.count(target) % 2 == 0

    def to_dfa(self) -> DFA:
        """Explicit DFA (exponential in ``k``; used for cross-checks, k<=3).

        States are ``(len mod m, parity bitmask over sigma_0..sigma_{m-1})``
        — only the first ``m = 2^k - 1`` symbols can ever be the target, so
        parities of later symbols need not be tracked.
        """
        if self.k > 3:
            raise LanguageError("explicit trade-off DFA limited to k <= 3")
        m = self.modulus
        states = frozenset(
            (length_mod, mask) for length_mod in range(m) for mask in range(1 << m)
        )
        transitions: dict[tuple[tuple[int, int], str], tuple[int, int]] = {}
        for length_mod, mask in states:
            for position, symbol in enumerate(self._alphabet):
                new_mask = mask ^ (1 << position) if position < m else mask
                transitions[((length_mod, mask), symbol)] = (
                    (length_mod + 1) % m,
                    new_mask,
                )
        accepting = frozenset(
            (length_mod, mask)
            for length_mod, mask in states
            if not (mask >> length_mod) & 1
        )
        return DFA(states, self._alphabet, transitions, (0, 0), accepting)

    def sample_member(self, length: int, rng: random.Random) -> str | None:
        index = length % self.modulus
        target = self._alphabet[index]
        word = list(self.random_word(length, rng))
        if word.count(target) % 2 == 1:
            # Flip one occurrence (or one non-occurrence) to fix the parity.
            positions = [i for i, ch in enumerate(word) if ch == target]
            if positions:
                replacement = self._alphabet[(index + 1) % len(self._alphabet)]
                word[rng.choice(positions)] = replacement
            else:  # pragma: no cover - parity odd implies an occurrence exists
                return None
        return "".join(word)

    def sample_non_member(self, length: int, rng: random.Random) -> str | None:
        member = self.sample_member(length, rng)
        if member is None:
            return None
        index = length % self.modulus
        target = self._alphabet[index]
        other = self._alphabet[(index + 1) % len(self._alphabet)]
        # Flipping one letter to/from the target changes its parity.
        position = rng.randrange(length) if length else None
        if position is None:
            return None
        word = list(member)
        word[position] = target if word[position] != target else other
        return "".join(word)


def tradeoff_language(k: int) -> TradeoffLanguage:
    """Factory for :class:`TradeoffLanguage` (mirrors other helpers)."""
    return TradeoffLanguage(k)
