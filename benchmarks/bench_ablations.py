"""Ablation benchmarks for three design choices of the constructions.

Three ablations, each isolating one choice the paper's constructions make:

* **Counter codec** — the counting pass with Elias-gamma (the paper's
  ``Theta(n log n)``) vs a unary codec (``Theta(n^2)``): self-delimiting
  logarithmic counters are what keep §7(2)/§7(3) off the quadratic shelf.
* **Cut-link choice** — Theorem 5's transformation cuts the *minimum-bits*
  link; forcing the maximum-bits link instead breaks the 4x bound on a
  skewed execution (one link carrying nearly all bits), demonstrating the
  proof's choice is load-bearing.
* **DFA minimality** — Theorem 1's constant is ``ceil(log2 |Q|)``; feeding
  the recognizer a raw subset-construction automaton instead of the
  minimal one inflates the constant while leaving the class linear.
"""

from __future__ import annotations

from repro.automata.regex import regex_to_nfa
from repro.bits import Bits
from repro.core.counting import (
    CountingAlgorithm,
    UnaryCountingAlgorithm,
    predicted_counting_bits,
    predicted_unary_counting_bits,
)
from repro.core.regular_onepass import DFARecognizer
from repro.ring import run_unidirectional
from repro.ring.line import ring_to_line
from repro.ring.messages import Send
from repro.ring.processor import Processor, RingAlgorithm


def bench_ablation_counter_codec(benchmark):
    """Gamma vs unary counting: Theta(n log n) vs Theta(n^2)."""

    def sweep():
        rows = []
        for n in (16, 64, 512):
            gamma = run_unidirectional(CountingAlgorithm(), "a" * n)
            unary = run_unidirectional(UnaryCountingAlgorithm(), "a" * n)
            assert gamma.total_bits == predicted_counting_bits(n)
            assert unary.total_bits == predicted_unary_counting_bits(n)
            rows.append((n, gamma.total_bits, unary.total_bits))
        return rows

    rows = benchmark(sweep)
    print("\nn, gamma bits, unary bits, unary/gamma")
    for n, gamma_bits, unary_bits in rows:
        print(f"  {n:4} {gamma_bits:6} {unary_bits:7} {unary_bits / gamma_bits:6.1f}x")
    # The gap must widen with n: quadratic vs n log n.
    ratios = [u / g for _, g, u in rows]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 10


class _HeavyLeader(Processor):
    """Sends one big block CW; accepts when the 1-bit ack returns."""

    def __init__(self, letter: str, payload_bits: int) -> None:
        super().__init__(letter, is_leader=True)
        self._payload_bits = payload_bits

    def on_start(self):
        return [Send.cw(Bits.ones(self._payload_bits))]

    def on_receive(self, message, arrived_from):
        self.decide(True)
        return ()


class _HeavyFollower(Processor):
    """First follower compresses the block to a 1-bit ack; others forward."""

    def on_receive(self, message, arrived_from):
        return [Send.cw(Bits("1"))]


class HeavyHandshake(RingAlgorithm):
    """A maximally skewed link profile: link 0 carries ~all the bits."""

    name = "heavy-handshake"

    def __init__(self, payload_bits: int) -> None:
        super().__init__("ab")
        self._payload_bits = payload_bits

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        if is_leader:
            return _HeavyLeader(letter, self._payload_bits)
        return _HeavyFollower(letter, is_leader=False)


def bench_ablation_cut_link_choice(benchmark):
    """Min-bits cut (the proof's) vs the heaviest link on a skewed run.

    With one link carrying nearly all bits, rerouting *it* the long way
    multiplies the execution cost ~n-fold; cutting the lightest link stays
    inside Theorem 5's 4x envelope.
    """
    n = 64
    trace = run_unidirectional(HeavyHandshake(payload_bits=512), "a" * n)
    totals = trace.bits_per_link()
    worst = max(totals, key=lambda link: totals[link])

    def transform_both():
        return ring_to_line(trace), ring_to_line(trace, cut=worst)

    best_result, worst_result = benchmark(transform_both)
    print(
        f"\nmin-cut ratio {best_result.ratio:.2f} (bound 4.0) vs "
        f"forced worst-cut ratio {worst_result.ratio:.2f}"
    )
    assert best_result.ratio <= 4.0
    # Rerouting the heavy link costs (n-1) copies of the big payload:
    # far beyond the bound - the proof's choice is load-bearing.
    assert worst_result.ratio > 4.0


def bench_ablation_dfa_minimality(benchmark):
    """Theorem 1 constant with and without minimization."""
    nfa = regex_to_nfa("(a|b)*a(a|b)(a|b)(a|b)", "ab")
    raw = nfa.determinize()
    word = "ab" * 64

    def run_both():
        fat = DFARecognizer(raw, minimal=False)
        slim = DFARecognizer(raw, minimal=True)
        return (
            run_unidirectional(fat, word),
            run_unidirectional(slim, word),
            fat.bits_per_message,
            slim.bits_per_message,
        )

    fat_trace, slim_trace, fat_width, slim_width = benchmark(run_both)
    print(
        f"\nraw subset DFA: {fat_width} bits/msg ({fat_trace.total_bits} total) "
        f"vs minimal: {slim_width} bits/msg ({slim_trace.total_bits} total)"
    )
    assert fat_trace.decision == slim_trace.decision
    assert slim_width < fat_width
    assert slim_trace.total_bits == slim_width * len(word)
