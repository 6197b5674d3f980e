"""The paper's contribution: recognizers and proof constructions.

One module per construction; this list is the inventory:

* :mod:`repro.core.regular_onepass` — Theorem 1's DFA-state-forwarding
  recognizer and the general one-pass transducer framework.
* :mod:`repro.core.message_graph` — Theorem 2's message graph, finiteness
  detection, DFA extraction, and the infinite-path lower-bound witness.
* :mod:`repro.core.multipass` — multi-pass unidirectional algorithms and
  the Theorem 3 compilation to a single pass.
* :mod:`repro.core.information_state` — Theorem 4/5's information-state
  counting and cut-segment machinery.
* :mod:`repro.core.counting` — the ``Theta(n log n)`` ring-size counter.
* :mod:`repro.core.counters` — §7(2)'s counter recognizer for block
  languages such as ``0^k 1^k 2^k``.
* :mod:`repro.core.comparison` — §7(1)'s ``Theta(n^2)`` ``w c w``
  recognizer, the marked-palindrome variant, and the generic
  collect-everything upper bound.
* :mod:`repro.core.hierarchy` — §7(3)'s ``Theta(g(n))`` recognizer for
  the ``L_g`` family.
* :mod:`repro.core.known_n` — §7(4)'s known-``n`` variants.
* :mod:`repro.core.passes_tradeoff` — §7(5)'s two-pass vs one-pass
  trade-off recognizers.
* :mod:`repro.core.regular_bidirectional` — Theorem 6.
* :mod:`repro.core.bidi_to_unidi` — Theorem 7's two-stage compiler.
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "DFARecognizer": ".regular_onepass",
    "OnePassTransducer": ".regular_onepass",
    "TransducerRingAlgorithm": ".regular_onepass",
    "CountingAlgorithm": ".counting",
    "LengthPredicateRecognizer": ".counting",
    "BlockCounterRecognizer": ".counters",
    "DyckRecognizer": ".counters",
    "CollectAllRecognizer": ".comparison",
    "CopyRecognizer": ".comparison",
    "MarkedPalindromeRecognizer": ".comparison",
    "HierarchyRecognizer": ".hierarchy",
    "KnownNHierarchyRecognizer": ".known_n",
    "KnownNLengthRecognizer": ".known_n",
    "OnePassTradeoffRecognizer": ".passes_tradeoff",
    "TwoPassTradeoffRecognizer": ".passes_tradeoff",
    "one_pass_bits": ".passes_tradeoff",
    "two_pass_bits": ".passes_tradeoff",
    "MessageGraph": ".message_graph",
    "build_message_graph": ".message_graph",
    "extract_dfa": ".message_graph",
    "MultipassAlgorithm": ".multipass",
    "MultipassRingAlgorithm": ".multipass",
    "compile_to_one_pass": ".multipass",
    "cut_word": ".information_state",
    "verify_cut_lemma": ".information_state",
    "min_distinct_states": ".information_state",
    "entropy_lower_bound_bits": ".information_state",
    "BidirectionalDFARecognizer": ".regular_bidirectional",
    "LineEmbeddedAlgorithm": ".bidi_to_unidi",
    "BidiToUnidiCompiler": ".bidi_to_unidi",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
