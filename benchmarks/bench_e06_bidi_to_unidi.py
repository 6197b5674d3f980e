"""Benchmark E6 — Theorem 7: bidirectional O(n) compiles to unidirectional O(n).

Regenerates the E6 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e06_bidi_to_unidi.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e6_bidi_to_unidi(benchmark):
    run_experiment_benchmark(benchmark, "E6")
