"""Deterministic finite automata.

A :class:`DFA` here is *total*: every (state, letter) pair has a transition.
Totality matters because Theorem 1's ring algorithm forwards ``delta(q, a)``
unconditionally — a missing transition would be a protocol error, not a
rejection.  Use :meth:`DFA.completed` to totalize a partial table with a sink
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.errors import AutomatonError

State = Hashable
Symbol = str

__all__ = ["DFA"]


@dataclass(frozen=True)
class DFA:
    """A total deterministic finite automaton.

    Parameters
    ----------
    states:
        Finite set of states (any hashable values).
    alphabet:
        Tuple of single-character symbols; order is used for canonical forms.
    transitions:
        Mapping ``(state, symbol) -> state``, total over
        ``states x alphabet``.
    start:
        The initial state.
    accepting:
        Subset of ``states``.
    """

    states: frozenset[State]
    alphabet: tuple[Symbol, ...]
    transitions: Mapping[tuple[State, Symbol], State]
    start: State
    accepting: frozenset[State]

    def __post_init__(self) -> None:
        states = frozenset(self.states)
        accepting = frozenset(self.accepting)
        alphabet = tuple(self.alphabet)
        transitions = dict(self.transitions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        if not states:
            raise AutomatonError("a DFA needs at least one state")
        if self.start not in states:
            raise AutomatonError(f"start state {self.start!r} not in states")
        if not accepting <= states:
            raise AutomatonError("accepting states must be a subset of states")
        if len(set(alphabet)) != len(alphabet):
            raise AutomatonError("alphabet contains duplicate symbols")
        for state in states:
            for symbol in alphabet:
                key = (state, symbol)
                if key not in transitions:
                    raise AutomatonError(
                        f"missing transition for {key!r}; use DFA.completed() "
                        "to totalize a partial table"
                    )
                if transitions[key] not in states:
                    raise AutomatonError(
                        f"transition {key!r} -> {transitions[key]!r} leaves "
                        "the state set"
                    )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def completed(
        cls,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[tuple[State, Symbol], State],
        start: State,
        accepting: Iterable[State],
        sink: State = "__sink__",
    ) -> "DFA":
        """Build a total DFA from a possibly partial transition table.

        Missing transitions are routed to a non-accepting ``sink`` state,
        which is added only when needed.
        """
        state_set = set(states)
        alpha = tuple(alphabet)
        table = dict(transitions)
        needs_sink = any(
            (state, symbol) not in table for state in state_set for symbol in alpha
        )
        if needs_sink:
            if sink in state_set:
                raise AutomatonError(f"sink name {sink!r} collides with a state")
            state_set.add(sink)
            for state in state_set:
                for symbol in alpha:
                    table.setdefault((state, symbol), sink)
        return cls(
            states=frozenset(state_set),
            alphabet=alpha,
            transitions=table,
            start=start,
            accepting=frozenset(accepting),
        )

    @classmethod
    def from_table(
        cls,
        alphabet: Iterable[Symbol],
        table: Mapping[State, Mapping[Symbol, State]],
        start: State,
        accepting: Iterable[State],
    ) -> "DFA":
        """Build a DFA from a nested ``{state: {symbol: state}}`` table."""
        transitions = {
            (state, symbol): target
            for state, row in table.items()
            for symbol, target in row.items()
        }
        return cls.completed(table.keys(), alphabet, transitions, start, accepting)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, state: State, symbol: Symbol) -> State:
        """One application of the transition function."""
        try:
            return self.transitions[(state, symbol)]
        except KeyError:
            raise AutomatonError(
                f"symbol {symbol!r} not in alphabet {self.alphabet!r}"
            ) from None

    def run(self, word: str, start: State | None = None) -> State:
        """State reached from ``start`` (default: initial state) on ``word``."""
        state = self.start if start is None else start
        transitions = self.transitions
        for symbol in word:
            try:
                state = transitions[(state, symbol)]
            except KeyError:
                raise AutomatonError(
                    f"symbol {symbol!r} not in alphabet {self.alphabet!r}"
                ) from None
        return state

    def accepts(self, word: str) -> bool:
        """Whether ``word`` is in the automaton's language."""
        return self.run(word) in self.accepting

    def trace(self, word: str) -> list[State]:
        """The full state sequence visited while reading ``word``."""
        states = [self.start]
        for symbol in word:
            states.append(self.step(states[-1], symbol))
        return states

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States reachable from the start state."""
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            state = frontier.pop()
            for symbol in self.alphabet:
                nxt = self.transitions[(state, symbol)]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def trimmed(self) -> "DFA":
        """Restriction to reachable states (language-preserving)."""
        reachable = self.reachable_states()
        return DFA(
            states=reachable,
            alphabet=self.alphabet,
            transitions={
                key: target
                for key, target in self.transitions.items()
                if key[0] in reachable
            },
            start=self.start,
            accepting=self.accepting & reachable,
        )

    def renamed(self) -> "DFA":
        """Isomorphic copy with states renamed to ``0..k-1`` in BFS order.

        The BFS order over the (sorted) alphabet makes the renaming canonical
        for a fixed transition structure, which :func:`canonical_form` relies
        on for isomorphism checks.
        """
        order: dict[State, int] = {self.start: 0}
        queue = [self.start]
        while queue:
            state = queue.pop(0)
            for symbol in self.alphabet:
                nxt = self.transitions[(state, symbol)]
                if nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
        # Unreachable states keep deterministic trailing indices.
        for state in sorted(self.states - order.keys(), key=repr):
            order[state] = len(order)
        return DFA(
            states=frozenset(order.values()),
            alphabet=self.alphabet,
            transitions={
                (order[s], a): order[t] for (s, a), t in self.transitions.items()
            },
            start=0,
            accepting=frozenset(order[s] for s in self.accepting),
        )

    def __len__(self) -> int:
        return len(self.states)

    def words_up_to(self, max_length: int) -> Iterable[str]:
        """All words over the alphabet of length at most ``max_length``."""
        frontier = [""]
        while frontier:
            word = frontier.pop(0)
            yield word
            if len(word) < max_length:
                frontier.extend(word + symbol for symbol in self.alphabet)
