"""Benchmark E11 — Paragraph 7(5): two passes at (2k+1)n vs one pass at (k+2^k-1)n.

Regenerates the E11 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e11_passes_tradeoff.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e11_passes_tradeoff(benchmark):
    run_experiment_benchmark(benchmark, "E11")
