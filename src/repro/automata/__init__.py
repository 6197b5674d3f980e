"""Finite-automata substrate.

Theorem 1 turns a DFA into a ring algorithm whose messages are DFA states;
Theorem 2 goes the other way, extracting a DFA from the message graph of any
linear-bit one-pass algorithm.  This subpackage provides the complete DFA/NFA
toolkit both directions rely on: construction, regex compilation, boolean
operations, Hopcroft minimization, equivalence checking, and structural
properties (emptiness, finiteness, residual classes).
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "DFA": ".dfa",
    "NFA": ".nfa",
    "compile_regex": ".regex",
    "regex_to_nfa": ".regex",
    "product": ".operations",
    "union": ".operations",
    "intersection": ".operations",
    "complement": ".operations",
    "concatenate": ".operations",
    "reverse": ".operations",
    "star": ".operations",
    "minimize": ".minimize",
    "canonical_form": ".minimize",
    "equivalent": ".equivalence",
    "distinguishing_word": ".equivalence",
    "is_empty": ".properties",
    "is_universal": ".properties",
    "is_finite_language": ".properties",
    "pumping_length": ".properties",
    "residual_classes": ".properties",
    "shortest_accepted": ".properties",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
