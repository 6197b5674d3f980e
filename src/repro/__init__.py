"""Reproduction of Mansour & Zaks, "On the Bit Complexity of Distributed
Computations in a Ring with a Leader" (PODC 1986 / Inf. & Comp. 75, 1987).

The library models an asynchronous ring of processors with a leader, where
each processor holds one letter and the leader must accept or reject the
pattern around the ring; the cost measure is the total number of message
*bits*.  It provides:

* exact-bit ring simulators (unidirectional, bidirectional, line) --
  :mod:`repro.ring`;
* the automata and language substrates -- :mod:`repro.automata`,
  :mod:`repro.languages`;
* every algorithm and proof construction in the paper --
  :mod:`repro.core` (Theorem 1's DFA recognizer, Theorem 2's message
  graph, Theorem 3's and Theorem 7's compilers, the information-state
  machinery of Theorems 4-5, and the §7 recognizers: counters, w c w,
  the L_g hierarchy, known-n variants, the pass/bit trade-off);
* growth-law analysis and the experiment suite regenerating every claim --
  :mod:`repro.analysis`, :mod:`repro.experiments`, and the ``ring-repro``
  CLI.

Quickstart::

    from repro.languages import parity_language
    from repro.core import DFARecognizer
    from repro.ring import run_unidirectional

    lang = parity_language()                    # even number of 'a's
    algorithm = DFARecognizer(lang.dfa)         # Theorem 1 construction
    trace = run_unidirectional(algorithm, "abab")
    assert trace.decision is True
    assert trace.total_bits == len("abab")      # 1 bit/message: |Q| = 2
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "Bits": ".bits",
    "BitReader": ".bits",
    "ReproError": ".errors",
    "Direction": ".ring",
    "Send": ".ring",
    "Processor": ".ring",
    "RingAlgorithm": ".ring",
    "ExecutionTrace": ".ring",
    "TraceStats": ".ring",
    "UnidirectionalRing": ".ring",
    "BidirectionalRing": ".ring",
    "LineNetwork": ".ring",
    "run_unidirectional": ".ring",
    "run_bidirectional": ".ring",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
