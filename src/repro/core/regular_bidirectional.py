"""Theorem 6: regular languages in ``O(n)`` bits on bidirectional rings.

The paper's proof is one line — "Follows immediately from Theorem 1" — and
so is the implementation: a unidirectional algorithm *is* a bidirectional
algorithm that happens never to use its CCW ports.  The class below is the
Theorem 1 recognizer re-exported under its bidirectional role so that the
E1 experiment can run it through :class:`~repro.ring.bidirectional.
BidirectionalRing` under every scheduler and observe the identical
``ceil(log2 |Q|) * n`` cost (a one-message-in-flight algorithm is
scheduler-invariant, which the tests check explicitly).

The simulator uses that invariance the same way the proof does: a
``trace="metrics"`` run walks the word through the inherited relay
program under every scheduler, exactly as the unidirectional ring does,
and asks a non-FIFO scheduler once per delivery so its state matches
the chooser loop's (``tests/test_relay_walk.py``).  Full traces still
run the processors.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.core.regular_onepass import DFARecognizer

__all__ = ["BidirectionalDFARecognizer"]


class BidirectionalDFARecognizer(DFARecognizer):
    """Theorem 6's recognizer (Theorem 1 run on the bidirectional ring)."""

    def __init__(self, dfa: DFA, name: str = "thm6-dfa", minimal: bool = True) -> None:
        super().__init__(dfa, name=name, minimal=minimal)
