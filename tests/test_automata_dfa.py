"""Unit tests for repro.automata.dfa."""

from __future__ import annotations

import pytest

from repro.automata.dfa import DFA
from repro.errors import AutomatonError


def even_as() -> DFA:
    return DFA(
        states=frozenset({0, 1}),
        alphabet=("a", "b"),
        transitions={
            (0, "a"): 1,
            (0, "b"): 0,
            (1, "a"): 0,
            (1, "b"): 1,
        },
        start=0,
        accepting=frozenset({0}),
    )


class TestConstruction:
    def test_valid(self):
        dfa = even_as()
        assert len(dfa) == 2

    def test_missing_transition_rejected(self):
        with pytest.raises(AutomatonError, match="missing transition"):
            DFA(
                states=frozenset({0}),
                alphabet=("a",),
                transitions={},
                start=0,
                accepting=frozenset(),
            )

    def test_bad_start(self):
        with pytest.raises(AutomatonError, match="start state"):
            DFA(
                states=frozenset({0}),
                alphabet=("a",),
                transitions={(0, "a"): 0},
                start=7,
                accepting=frozenset(),
            )

    def test_accepting_outside_states(self):
        with pytest.raises(AutomatonError):
            DFA(
                states=frozenset({0}),
                alphabet=("a",),
                transitions={(0, "a"): 0},
                start=0,
                accepting=frozenset({9}),
            )

    def test_transition_leaves_states(self):
        with pytest.raises(AutomatonError):
            DFA(
                states=frozenset({0}),
                alphabet=("a",),
                transitions={(0, "a"): 3},
                start=0,
                accepting=frozenset(),
            )

    def test_duplicate_alphabet(self):
        with pytest.raises(AutomatonError, match="duplicate"):
            DFA(
                states=frozenset({0}),
                alphabet=("a", "a"),
                transitions={(0, "a"): 0},
                start=0,
                accepting=frozenset(),
            )

    def test_empty_states(self):
        with pytest.raises(AutomatonError):
            DFA(frozenset(), ("a",), {}, 0, frozenset())


class TestCompleted:
    def test_adds_sink(self):
        dfa = DFA.completed(
            states={0, 1},
            alphabet="ab",
            transitions={(0, "a"): 1},
            start=0,
            accepting={1},
        )
        assert "__sink__" in dfa.states
        assert not dfa.accepts("b")
        assert dfa.accepts("a")

    def test_no_sink_when_total(self):
        dfa = DFA.completed(
            states={0},
            alphabet="a",
            transitions={(0, "a"): 0},
            start=0,
            accepting={0},
        )
        assert "__sink__" not in dfa.states

    def test_sink_collision(self):
        with pytest.raises(AutomatonError, match="collides"):
            DFA.completed(
                states={"__sink__", 0},
                alphabet="a",
                transitions={(0, "a"): 0},
                start=0,
                accepting=set(),
            )

    def test_from_table(self):
        dfa = DFA.from_table(
            "ab",
            {0: {"a": 1}, 1: {"a": 1, "b": 0}},
            start=0,
            accepting=[1],
        )
        assert dfa.accepts("a")
        assert dfa.accepts("aba")
        assert not dfa.accepts("b")


class TestExecution:
    def test_accepts(self):
        dfa = even_as()
        assert dfa.accepts("")
        assert dfa.accepts("aa")
        assert dfa.accepts("baba")
        assert dfa.accepts("aab")
        assert not dfa.accepts("a")
        assert not dfa.accepts("ab")

    def test_run_from_custom_state(self):
        dfa = even_as()
        assert dfa.run("a", start=1) == 0

    def test_trace(self):
        dfa = even_as()
        assert dfa.trace("ab") == [0, 1, 1]

    def test_unknown_symbol(self):
        with pytest.raises(AutomatonError, match="not in alphabet"):
            even_as().accepts("z")

    @pytest.mark.parametrize("word", ["z", "abz", "aabbz"])
    def test_unknown_symbol_wording_matches_step(self, word):
        """``run`` reads the table in a loop; its error is still ``step``'s."""
        dfa = even_as()
        with pytest.raises(AutomatonError) as from_step:
            dfa.step(dfa.run(word[:-1]), "z")
        with pytest.raises(AutomatonError) as from_accepts:
            dfa.accepts(word)
        assert str(from_accepts.value) == str(from_step.value) == (
            "symbol 'z' not in alphabet ('a', 'b')"
        )


class TestStructure:
    def test_reachable_states(self):
        dfa = DFA(
            states=frozenset({0, 1, 2}),
            alphabet=("a",),
            transitions={(0, "a"): 0, (1, "a"): 2, (2, "a"): 2},
            start=0,
            accepting=frozenset({2}),
        )
        assert dfa.reachable_states() == frozenset({0})

    def test_trimmed_preserves_language(self):
        dfa = DFA(
            states=frozenset({0, 1, 2}),
            alphabet=("a",),
            transitions={(0, "a"): 1, (1, "a"): 0, (2, "a"): 2},
            start=0,
            accepting=frozenset({1, 2}),
        )
        trimmed = dfa.trimmed()
        assert 2 not in trimmed.states
        for word in ["", "a", "aa", "aaa"]:
            assert trimmed.accepts(word) == dfa.accepts(word)

    def test_renamed_is_isomorphic(self):
        dfa = even_as()
        renamed = dfa.renamed()
        assert renamed.start == 0
        assert renamed.states == frozenset({0, 1})
        for word in ["", "a", "ab", "ba", "aa", "abab"]:
            assert renamed.accepts(word) == dfa.accepts(word)

    def test_words_up_to(self):
        words = list(even_as().words_up_to(2))
        assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]
