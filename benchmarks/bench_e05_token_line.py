"""Benchmark E5 — Theorem 5: token serialization (<=3x) and the ring->line transformation (<=4x).

Regenerates the E5 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e05_token_line.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e5_token_line(benchmark):
    run_experiment_benchmark(benchmark, "E5")
